"""Tests for disconnection models."""

import random

import pytest

from repro.client.disconnect import NeverDisconnected, RandomDisconnections
from tests.helpers import ScheduledDisconnections


def test_never_disconnected():
    model = NeverDisconnected()
    assert all(model.is_listening(c) for c in range(100))


class TestScheduled:
    def test_windows_are_deaf(self):
        model = ScheduledDisconnections([(3, 5), (9, 9)])
        listening = [model.is_listening(c) for c in range(1, 11)]
        assert listening == [
            True, True, False, False, False, True, True, True, False, True,
        ]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ScheduledDisconnections([(5, 3)])


class TestRandom:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomDisconnections(p_disconnect=1.5)
        with pytest.raises(ValueError):
            RandomDisconnections(p_disconnect=0.1, mean_outage_cycles=0.5)

    def test_zero_probability_always_listening(self):
        model = RandomDisconnections(p_disconnect=0.0, rng=random.Random(1))
        assert all(model.is_listening(c) for c in range(1, 200))

    def test_certain_disconnection_alternates(self):
        model = RandomDisconnections(
            p_disconnect=1.0, mean_outage_cycles=1.0, rng=random.Random(1)
        )
        # Never hears two consecutive... in fact with p=1 the first check
        # already disconnects every time it is connected.
        results = [model.is_listening(c) for c in range(1, 50)]
        assert not all(results)

    def test_outage_windows_are_contiguous(self):
        rng = random.Random(42)
        model = RandomDisconnections(
            p_disconnect=0.2, mean_outage_cycles=3.0, rng=rng
        )
        results = [model.is_listening(c) for c in range(1, 500)]
        assert any(results)
        assert not all(results)

    def test_mean_outage_length_roughly_respected(self):
        rng = random.Random(7)
        model = RandomDisconnections(
            p_disconnect=0.1, mean_outage_cycles=4.0, rng=rng
        )
        results = [model.is_listening(c) for c in range(1, 5000)]
        # Measure mean run length of deaf cycles.
        runs, current = [], 0
        for listening in results:
            if not listening:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs
        mean_run = sum(runs) / len(runs)
        assert mean_run == pytest.approx(4.0, rel=0.5)

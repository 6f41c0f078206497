"""Unit tests for checkpoints, crash schedules, and resync selection."""

import random

import pytest

from repro.resilience.checkpoint import (
    CheckpointStore,
    ClientCheckpoint,
    CrashSchedule,
    select_resync,
)


class TestCheckpointStore:
    def test_keeps_only_the_latest(self):
        store = CheckpointStore(interval=5)
        store.save(ClientCheckpoint(cycle=5))
        store.save(ClientCheckpoint(cycle=10))
        assert store.latest.cycle == 10
        assert store.saves == 2

    def test_due_every_interval(self):
        store = CheckpointStore(interval=4)
        assert [c for c in range(1, 13) if store.due(c)] == [4, 8, 12]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=0)


class TestCrashSchedule:
    def test_draw_is_deterministic_per_seed(self):
        draw = lambda s: CrashSchedule.draw(
            random.Random(s), num_cycles=200, rate=0.05, mean_length=2.0
        ).windows
        assert draw(9) == draw(9)
        assert draw(9) != draw(10)

    def test_window_queries(self):
        schedule = CrashSchedule([(5, 7), (12, 12)])
        assert schedule.crash_starting_at(5) == (5, 7)
        assert schedule.crash_starting_at(6) is None
        assert schedule.crash_starting_at(12) == (12, 12)

    def test_zero_rate_draws_nothing(self):
        schedule = CrashSchedule.draw(
            random.Random(1), num_cycles=100, rate=0.0, mean_length=2.0
        )
        assert schedule.windows == []


class TestSelectResync:
    def test_no_checkpoint_means_rejoin(self):
        assert (
            select_resync(None, 20, catchup_window=8, window_covered=True)
            == "rejoin"
        )

    def test_covered_short_outage_means_catchup(self):
        checkpoint = ClientCheckpoint(cycle=15)
        assert (
            select_resync(checkpoint, 20, catchup_window=8, window_covered=True)
            == "catchup"
        )

    def test_long_outage_means_rejoin_even_if_covered(self):
        checkpoint = ClientCheckpoint(cycle=5)
        assert (
            select_resync(checkpoint, 20, catchup_window=8, window_covered=True)
            == "rejoin"
        )

    def test_uncovered_window_means_rejoin(self):
        checkpoint = ClientCheckpoint(cycle=18)
        assert (
            select_resync(checkpoint, 20, catchup_window=8, window_covered=False)
            == "rejoin"
        )

"""Tests for broadcast schedules (flat and broadcast-disk)."""

from collections import Counter

import pytest

from repro.broadcast.schedule import FlatSchedule
from tests.integration.broadcast_disks import BroadcastDiskSchedule, DiskSpec


class TestFlatSchedule:
    def test_every_item_once_in_key_order(self):
        schedule = FlatSchedule(10)
        assert schedule.item_order() == list(range(1, 11))
        assert schedule.length == 10

    def test_size_validation(self):
        with pytest.raises(ValueError):
            FlatSchedule(0)

    def test_item_order_returns_copy(self):
        schedule = FlatSchedule(5)
        order = schedule.item_order()
        order.append(99)
        assert schedule.item_order() == [1, 2, 3, 4, 5]


class TestDiskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(5, 4, 1)
        with pytest.raises(ValueError):
            DiskSpec(1, 4, 0)

    def test_items(self):
        assert DiskSpec(3, 5, 2).items == [3, 4, 5]


class TestBroadcastDiskSchedule:
    def test_frequencies_respected(self):
        schedule = BroadcastDiskSchedule(
            [DiskSpec(1, 4, 4), DiskSpec(5, 12, 2), DiskSpec(13, 28, 1)]
        )
        counts = Counter(schedule.item_order())
        for item in range(1, 5):
            assert counts[item] == 4
        for item in range(5, 13):
            assert counts[item] == 2
        for item in range(13, 29):
            assert counts[item] == 1

    def test_every_item_appears(self):
        schedule = BroadcastDiskSchedule.classic(100)
        assert set(schedule.item_order()) == set(range(1, 101))

    def test_classic_hot_items_more_frequent(self):
        schedule = BroadcastDiskSchedule.classic(100, hot_fraction=0.1)
        counts = Counter(schedule.item_order())
        assert counts[1] == 4
        assert counts[100] == 1
        assert counts[1] > counts[20] > counts[100]

    def test_frequency_of_lookup(self):
        schedule = BroadcastDiskSchedule(
            [DiskSpec(1, 2, 2), DiskSpec(3, 6, 1)]
        )
        assert schedule.frequency_of(1) == 2
        assert schedule.frequency_of(5) == 1
        with pytest.raises(KeyError):
            schedule.frequency_of(7)

    def test_overlapping_disks_rejected(self):
        with pytest.raises(ValueError):
            BroadcastDiskSchedule([DiskSpec(1, 5, 2), DiskSpec(5, 8, 1)])

    def test_non_dividing_frequencies_rejected(self):
        with pytest.raises(ValueError):
            BroadcastDiskSchedule([DiskSpec(1, 2, 3), DiskSpec(3, 4, 2)])

    def test_empty_disks_rejected(self):
        with pytest.raises(ValueError):
            BroadcastDiskSchedule([])

    def test_hot_items_spread_through_major_cycle(self):
        """Fast-disk items must appear in every minor cycle, not bunched."""
        schedule = BroadcastDiskSchedule(
            [DiskSpec(1, 2, 4), DiskSpec(3, 10, 1)]
        )
        order = schedule.item_order()
        positions = [i for i, item in enumerate(order) if item == 1]
        assert len(positions) == 4
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert max(gaps) < len(order)  # appears throughout

"""Tests for (1, m) air indexing and selective tuning."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.indexing import OneMIndex, no_index_costs


def make(data_buckets=100, items_per_bucket=10, fanout=10, m=1):
    return OneMIndex(
        data_buckets=data_buckets,
        items_per_bucket=items_per_bucket,
        fanout=fanout,
        replication=m,
    )


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            make(data_buckets=0)
        with pytest.raises(ValueError):
            make(fanout=1)
        with pytest.raises(ValueError):
            make(m=0)
        with pytest.raises(ValueError):
            OneMIndex(10, 0)

    def test_index_size_is_tree_size(self):
        # 100 leaves, fanout 10: 10 internal + 1 root = 11 buckets.
        assert make().index_buckets == 11
        # 1000 leaves, fanout 10: 100 + 10 + 1.
        assert make(data_buckets=1000).index_buckets == 111

    def test_probe_count_is_descent_length(self):
        assert make().probes == 2  # root, then level-1 node
        assert make(data_buckets=1000).probes == 3

    def test_cycle_length_counts_replicas(self):
        assert make(m=1).cycle_length == 111
        assert make(m=4).cycle_length == 100 + 4 * 11

    def test_data_bucket_of(self):
        index = make()
        assert index.data_bucket_of(1) == 0
        assert index.data_bucket_of(10) == 0
        assert index.data_bucket_of(11) == 1
        assert index.data_bucket_of(1000) == 99
        with pytest.raises(ValueError):
            index.data_bucket_of(0)
        with pytest.raises(ValueError):
            index.data_bucket_of(1001)

    def test_layout_interleaves_index_copies(self):
        index = make(m=4)  # segments of 25 data buckets
        assert index.segment_data == 25
        # First data bucket right after the first index copy.
        assert index.slot_of_data_bucket(0) == 11
        # Bucket 25 begins the second segment: after 2 index copies + 25.
        assert index.slot_of_data_bucket(25) == 2 * 11 + 25


class TestCosts:
    def test_tuning_time_is_constant_and_tiny(self):
        index = make()
        cost = index.locate(item=777, arrival_slot=3.0)
        assert cost.tuning_time == 1 + index.probes + 1
        assert cost.tuning_time <= 5

    def test_access_time_positive_and_bounded(self):
        index = make(m=1)
        for item in (1, 500, 1000):
            for arrival in (0.0, 13.7, 110.9):
                cost = index.locate(item, arrival)
                assert 0 < cost.access_time <= 2 * index.cycle_length
                assert cost.tuning_time <= cost.access_time

    def test_indexing_slashes_tuning_versus_no_index(self):
        index = make()
        _, tuning = index.mean_costs(samples=40)
        _, baseline_tuning = no_index_costs(100)
        assert tuning < baseline_tuning / 5

    def test_replication_trades_access_for_bcast_length(self):
        """More index copies: shorter waits to the next index, longer
        cycle.  Mean access should improve from m=1 to the optimum."""
        access_m1, _ = make(m=1).mean_costs(samples=40)
        best_m = OneMIndex.optimal_replication(100, make().index_buckets)
        access_opt, _ = make(m=best_m).mean_costs(samples=40)
        assert best_m == 3  # sqrt(100 / 11) ~ 3
        assert access_opt < access_m1

    def test_over_replication_hurts_access(self):
        best_m = 3
        access_opt, _ = make(m=best_m).mean_costs(samples=40)
        access_over, _ = make(m=20).mean_costs(samples=40)
        assert access_over > access_opt

    @given(
        item=st.integers(min_value=1, max_value=1000),
        arrival=st.floats(min_value=0, max_value=400, allow_nan=False),
        m=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_located_slot_carries_the_item(self, item, arrival, m):
        index = make(m=m)
        cost = index.locate(item, arrival)
        # Reconstruct the delivered slot and check it is the item's data
        # bucket in the cyclic layout.
        slot = arrival + cost.access_time - 1
        cycle_slot = slot % index.cycle_length
        expected = index.slot_of_data_bucket(index.data_bucket_of(item))
        assert math.isclose(cycle_slot, expected, abs_tol=1e-6) or math.isclose(
            slot, expected, abs_tol=1e-6
        )

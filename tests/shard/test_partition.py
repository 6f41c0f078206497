"""Property tests for the item-to-shard partitioners.

The sharded server's correctness argument leans on three structural
facts this module pins with Hypothesis: every partitioner is a total,
disjoint cover of the item universe; the hash partitioner's placement of
an item never moves when the universe grows (so adding items does not
reshuffle the existing broadcast); and the range partitioner keeps each
shard contiguous, which is exactly what makes it skew-sensitive under a
Zipf workload (the imbalance test quantifies that, deterministically,
from the pmf itself).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.shard.partition import (
    PARTITIONERS,
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.shard.runtime import apportion
from repro.stats.zipf import zipf_pmf

shard_counts = st.integers(min_value=1, max_value=8)
universes = st.integers(min_value=8, max_value=400)


class TestCoverProperties:
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @given(num_shards=shard_counts, universe=universes)
    @settings(max_examples=60, deadline=None)
    def test_partition_is_total_and_disjoint(self, name, num_shards, universe):
        part = make_partitioner(name, num_shards, universe)
        seen = []
        for shard in range(num_shards):
            items = part.items_of(shard)
            assert items == sorted(items)
            seen.extend(items)
        assert sorted(seen) == list(range(1, universe + 1))

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @given(num_shards=shard_counts, universe=universes)
    @settings(max_examples=60, deadline=None)
    def test_shard_of_agrees_with_items_of(self, name, num_shards, universe):
        part = make_partitioner(name, num_shards, universe)
        for shard in range(num_shards):
            for item in part.items_of(shard):
                assert part.shard_of(item) == shard


class TestHashStability:
    @given(
        num_shards=shard_counts,
        universe=universes,
        growth=st.integers(min_value=0, max_value=500),
        item=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_placement_survives_universe_growth(
        self, num_shards, universe, growth, item
    ):
        """Growing the item count must not move already-placed items --
        clients' shard subscriptions stay valid across catalogue growth."""
        before = HashPartitioner(num_shards, universe)
        after = HashPartitioner(num_shards, universe + growth)
        assert before.shard_of(item) == after.shard_of(item)


class TestRangeShape:
    @given(num_shards=shard_counts, universe=universes)
    @settings(max_examples=60, deadline=None)
    def test_shards_are_contiguous(self, num_shards, universe):
        part = RangePartitioner(num_shards, universe)
        for shard in range(num_shards):
            items = part.items_of(shard)
            if items:
                assert items == list(range(items[0], items[-1] + 1))

    def test_zipf_skew_concentrates_on_range_not_hash(self):
        """Under a Zipf-skewed access pattern the range partitioner's
        first shard carries a badly disproportionate share of the mass,
        while the multiplicative hash spreads it; this is the measured
        basis for the hash default (DESIGN §13)."""
        universe, num_shards, theta = 100, 4, 0.95
        pmf = zipf_pmf(universe, theta)  # item i has mass pmf[i - 1]
        mass = {
            name: [0.0] * num_shards
            for name in ("hash", "range")
        }
        for name in mass:
            part = make_partitioner(name, num_shards, universe)
            for item in range(1, universe + 1):
                mass[name][part.shard_of(item)] += pmf[item - 1]
        fair = 1.0 / num_shards
        assert max(mass["range"]) > 2 * fair
        assert max(mass["hash"]) < 1.5 * fair
        assert max(mass["hash"]) < max(mass["range"])


class TestApportion:
    @given(
        total=st.integers(min_value=0, max_value=500),
        masses=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_total_and_stays_proportional(self, total, masses):
        counts = apportion(total, masses)
        assert sum(counts) == total if sum(masses) else all(
            c == 0 for c in counts
        )
        assert all(c >= 0 for c in counts)
        weight = sum(masses)
        if weight:
            for count, m in zip(counts, masses):
                exact = total * m / weight
                # Largest-remainder keeps every shard within one
                # transaction of its exact proportional share.
                assert exact - 1 < count < exact + 1 or abs(
                    count - exact
                ) <= 1

    def test_zero_mass_shards_get_nothing(self):
        assert apportion(10, [0.0, 1.0, 0.0, 1.0]) == [0, 5, 0, 5]

    def test_equal_masses_split_evenly(self):
        counts = apportion(10, [1.0, 1.0, 1.0, 1.0])
        assert sorted(counts) == [2, 2, 3, 3]
        assert sum(counts) == 10

"""Tests for the Zipf access-pattern generators."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.zipf import OffsetZipfGenerator, ZipfGenerator, zipf_pmf


class TestZipfPmf:
    def test_sums_to_one(self):
        assert sum(zipf_pmf(100, 0.95)) == pytest.approx(1.0)

    def test_theta_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert all(p == pytest.approx(0.1) for p in pmf)

    def test_monotonically_decreasing(self):
        pmf = zipf_pmf(50, 0.95)
        assert all(a >= b for a, b in zip(pmf, pmf[1:]))

    def test_larger_theta_more_skewed(self):
        mild = zipf_pmf(100, 0.5)
        harsh = zipf_pmf(100, 1.5)
        assert harsh[0] > mild[0]
        assert harsh[-1] < mild[-1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_pmf(10, -0.5)

    @given(
        n=st.integers(min_value=1, max_value=500),
        theta=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_property_valid_distribution(self, n, theta):
        pmf = zipf_pmf(n, theta)
        assert len(pmf) == n
        assert sum(pmf) == pytest.approx(1.0)
        assert all(p >= 0 for p in pmf)


class TestZipfGenerator:
    def test_samples_within_range(self, rng):
        gen = ZipfGenerator(50, 0.95, rng=rng)
        for _ in range(500):
            assert 1 <= gen.sample() <= 50

    def test_first_offsets_the_range(self, rng):
        gen = ZipfGenerator(10, 0.95, rng=rng, first=100)
        samples = [gen.sample() for _ in range(200)]
        assert all(100 <= s <= 109 for s in samples)

    def test_hot_items_sampled_more(self, rng):
        gen = ZipfGenerator(100, 0.95, rng=rng)
        counts = Counter(gen.sample() for _ in range(5000))
        assert counts[1] > counts.get(50, 0)
        assert counts[1] > counts.get(100, 0)

    def test_probability_matches_pmf(self):
        gen = ZipfGenerator(10, 0.8)
        pmf = zipf_pmf(10, 0.8)
        for rank in range(1, 11):
            assert gen.probability(rank) == pytest.approx(pmf[rank - 1])
        assert gen.probability(0) == 0.0
        assert gen.probability(11) == 0.0

    def test_sample_distinct_returns_unique_items(self, rng):
        gen = ZipfGenerator(30, 0.95, rng=rng)
        items = gen.sample_distinct(20)
        assert len(items) == 20
        assert len(set(items)) == 20

    def test_sample_distinct_full_range(self, rng):
        gen = ZipfGenerator(10, 0.95, rng=rng)
        items = gen.sample_distinct(10)
        assert sorted(items) == list(range(1, 11))

    def test_sample_distinct_beyond_range_rejected(self, rng):
        gen = ZipfGenerator(5, 0.95, rng=rng)
        with pytest.raises(ValueError):
            gen.sample_distinct(6)

    def test_deterministic_with_seed(self):
        a = ZipfGenerator(100, 0.95, rng=random.Random(5))
        b = ZipfGenerator(100, 0.95, rng=random.Random(5))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    @given(count=st.integers(min_value=1, max_value=50))
    @settings(max_examples=25)
    def test_property_distinct_sampling(self, count):
        gen = ZipfGenerator(50, 0.95, rng=random.Random(count))
        items = gen.sample_distinct(count)
        assert len(set(items)) == count
        assert all(1 <= item <= 50 for item in items)


class TestOffsetZipfGenerator:
    def test_zero_offset_matches_base(self, rng):
        gen = OffsetZipfGenerator(20, 0.95, offset=0, universe=100, rng=rng)
        assert all(1 <= gen.sample() <= 20 for _ in range(300))

    def test_offset_shifts_support(self, rng):
        gen = OffsetZipfGenerator(20, 0.95, offset=30, universe=100, rng=rng)
        assert all(31 <= gen.sample() <= 50 for _ in range(300))

    def test_offset_wraps_around_universe(self, rng):
        gen = OffsetZipfGenerator(20, 0.95, offset=90, universe=100, rng=rng)
        support = set(gen.support())
        assert support == set(range(91, 101)) | set(range(1, 11))

    def test_probability_follows_rotation(self):
        gen = OffsetZipfGenerator(10, 0.9, offset=5, universe=100)
        # Rank 1 maps to item 6 after rotation.
        assert gen.probability(6) == pytest.approx(zipf_pmf(10, 0.9)[0])
        assert gen.probability(1) == 0.0

    def test_overlap_shrinks_with_offset(self, rng):
        client = OffsetZipfGenerator(100, 0.95, offset=0, universe=1000)
        overlaps = [
            client.overlap(
                OffsetZipfGenerator(100, 0.95, offset=off, universe=1000)
            )
            for off in (0, 25, 50, 100)
        ]
        assert overlaps[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(overlaps, overlaps[1:]))

    def test_invalid_offset_rejected(self):
        with pytest.raises(ValueError):
            OffsetZipfGenerator(10, 0.95, offset=-1)

    def test_universe_smaller_than_range_rejected(self):
        with pytest.raises(ValueError):
            OffsetZipfGenerator(10, 0.95, offset=0, universe=5)

    def test_sample_distinct_applies_shift(self, rng):
        gen = OffsetZipfGenerator(10, 0.95, offset=50, universe=100, rng=rng)
        items = gen.sample_distinct(10)
        assert sorted(items) == list(range(51, 61))

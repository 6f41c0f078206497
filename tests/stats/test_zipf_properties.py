"""Property tests for the Zipf tables every generator draws from.

Rank probabilities never increase with rank, and ``zipf_cdf`` hands every
generator of the same shape one shared, immutable table.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.zipf import ZipfGenerator, zipf_cdf, zipf_pmf

thetas = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)


class TestRankMonotonicity:
    @given(n=st.integers(min_value=2, max_value=400), theta=thetas)
    @settings(max_examples=80, deadline=None)
    def test_rank_probabilities_monotone(self, n, theta):
        """The probability mass assigned to rank k (the CDF increments)
        never increases with k."""
        cdf = zipf_cdf(n, theta)
        increments = [cdf[0]] + [
            b - a for a, b in zip(cdf, cdf[1:])
        ]
        # Allow for representation error when differencing the prefix
        # sums: each increment equals the pmf term up to accumulation ulps.
        pmf = zipf_pmf(n, theta)
        for inc, p in zip(increments, pmf):
            assert abs(inc - p) < 1e-12
        for a, b in zip(increments, increments[1:]):
            assert b <= a + 1e-12

    def test_empirical_frequencies_monotone_in_rank(self):
        """With real skew and plenty of draws, hot ranks are observed at
        least as often as cold ones (coarse-grained to dodge noise)."""
        gen = ZipfGenerator(50, 0.95, rng=random.Random(1234))
        counts = Counter(gen.sample() for _ in range(40_000))
        buckets = [
            sum(counts.get(item, 0) for item in range(lo + 1, lo + 11))
            for lo in range(0, 50, 10)
        ]
        assert all(a >= b for a, b in zip(buckets, buckets[1:]))
        assert counts.most_common(1)[0][0] == 1


class TestSharedCdfCache:
    def test_generators_share_one_table(self):
        a = ZipfGenerator(123, 0.77)
        b = ZipfGenerator(123, 0.77)
        assert a._cdf is b._cdf

    def test_cdf_is_immutable_and_complete(self):
        cdf = zipf_cdf(64, 0.95)
        assert isinstance(cdf, tuple)
        assert len(cdf) == 64
        assert cdf[-1] == 1.0
        assert all(x <= y for x, y in zip(cdf, cdf[1:]))

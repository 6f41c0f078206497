"""Numerically stable online statistics (Welford accumulation)."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple


def _fold_partial(partials: List[float], x: float) -> None:
    """Shewchuk's error-free transformation: fold ``x`` into ``partials``
    so that ``sum(partials)`` stays the *exact* (infinite-precision) sum.

    Each pairwise ``hi = x + y`` keeps its rounding error ``lo`` as a
    separate partial, so the represented value never loses a bit.  The
    partials list stays short in practice (a handful of entries)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class OnlineStats:
    """Single-pass mean / variance / extrema accumulator.

    Uses Welford's algorithm so long simulations do not lose precision.
    Alongside the running mean, an exact (order-independent) sum of all
    observations is maintained as Shewchuk partials: two accumulators fed
    the same multiset of values in *any* order report bit-identical
    :attr:`exact_sum`, which is what lets the cohort engine's member-major
    aggregation be compared exactly against the event-interleaved
    discrete simulation (see :mod:`repro.cohort`).

    >>> s = OnlineStats()
    >>> for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
    ...     s.add(x)
    >>> s.mean
    5.0
    >>> round(s.population_variance, 10)
    4.0
    >>> s.exact_sum
    40.0
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._partials: List[float] = []

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        _fold_partial(self._partials, value)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator combining ``self`` and ``other``.

        Uses the parallel variant of Welford's update; handy when merging
        per-client statistics into a per-experiment aggregate.
        """
        merged = OnlineStats()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._n * other._n / n
        )
        mins = [m for m in (self._min, other._min) if m is not None]
        maxs = [m for m in (self._max, other._max) if m is not None]
        merged._min = min(mins) if mins else None
        merged._max = max(maxs) if maxs else None
        merged._partials = list(self._partials)
        for x in other._partials:
            _fold_partial(merged._partials, x)
        return merged

    def absorb(self, other: "OnlineStats") -> "OnlineStats":
        """In-place :meth:`merge`: fold ``other`` into ``self`` and return
        ``self``.  Used by :meth:`~repro.stats.metrics.MetricsRegistry.merge`
        to combine per-cohort partial registries without reallocating."""
        if other._n == 0:
            return self
        n = self._n + other._n
        delta = other._mean - self._mean
        self._mean = self._mean + delta * other._n / n
        self._m2 = (
            self._m2 + other._m2 + delta * delta * self._n * other._n / n
        )
        self._n = n
        mins = [m for m in (self._min, other._min) if m is not None]
        maxs = [m for m in (self._max, other._max) if m is not None]
        self._min = min(mins) if mins else None
        self._max = max(maxs) if maxs else None
        for x in other._partials:
            _fold_partial(self._partials, x)
        return self

    @property
    def exact_sum(self) -> float:
        """Correctly rounded sum of every observation, independent of the
        order they were added or merged in (0.0 when empty)."""
        return math.fsum(self._partials)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("No observations")
        return self._mean

    @property
    def population_variance(self) -> float:
        if self._n == 0:
            raise ValueError("No observations")
        return self._m2 / self._n

    @property
    def sample_variance(self) -> float:
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.sample_variance)

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError("No observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError("No observations")
        return self._max

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI for the mean (default 95%)."""
        if self._n == 0:
            raise ValueError("No observations")
        half = z * self.stdev / math.sqrt(self._n) if self._n > 1 else 0.0
        return (self._mean - half, self._mean + half)

    def __repr__(self) -> str:
        if self._n == 0:
            return "<OnlineStats empty>"
        return f"<OnlineStats n={self._n} mean={self._mean:.4g} sd={self.stdev:.4g}>"


class RatioEstimator:
    """Tracks a success/total ratio, e.g. commit or abort rates.

    >>> r = RatioEstimator()
    >>> for outcome in [True, True, False, True]:
    ...     r.record(outcome)
    >>> r.ratio
    0.75
    """

    def __init__(self) -> None:
        self._hits = 0
        self._total = 0

    def record(self, hit: bool) -> None:
        self._total += 1
        if hit:
            self._hits += 1

    def record_many(self, hits: int, total: int) -> None:
        if hits > total:
            raise ValueError(f"hits ({hits}) cannot exceed total ({total})")
        self._hits += hits
        self._total += total

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def total(self) -> int:
        return self._total

    @property
    def ratio(self) -> float:
        if self._total == 0:
            raise ValueError("No observations")
        return self._hits / self._total

    @property
    def complement(self) -> float:
        """``1 - ratio`` -- abort rate when hits are commits, and so on."""
        return 1.0 - self.ratio

    def merge(self, other: "RatioEstimator") -> "RatioEstimator":
        merged = RatioEstimator()
        merged._hits = self._hits + other._hits
        merged._total = self._total + other._total
        return merged

    def __repr__(self) -> str:
        if self._total == 0:
            return "<RatioEstimator empty>"
        return f"<RatioEstimator {self._hits}/{self._total} = {self.ratio:.3f}>"

"""Zipf access-pattern generators.

The paper's performance model (Section 5.1) draws both client reads and
server updates from a Zipf distribution: item ``i`` of ``n`` has probability
proportional to ``(1/i)**theta``.  ``theta = 0`` degenerates to uniform
access; the paper's default is ``theta = 0.95`` (strongly skewed).

An *offset* of ``k`` rotates the distribution ``k`` items forward so that
the hottest items of one party are lukewarm for the other; this models the
"disagreement between the client access pattern and the server update
pattern" that Figures 5 (right) and 8 (right) sweep.
"""

from __future__ import annotations

import bisect
import itertools
import random
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Sequence, Tuple


def zipf_pmf(n: int, theta: float) -> List[float]:
    """Probability mass function of the Zipf(``theta``) law over ``1..n``.

    Returns a list ``p`` where ``p[i-1]`` is the probability of rank ``i``.

    >>> pmf = zipf_pmf(3, 1.0)
    >>> round(sum(pmf), 10)
    1.0
    >>> pmf[0] > pmf[1] > pmf[2]
    True
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    weights = [(1.0 / rank) ** theta for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


@lru_cache(maxsize=128)
def zipf_cdf(n: int, theta: float) -> Tuple[float, ...]:
    """Cumulative distribution of Zipf(``theta``) over ranks ``1..n``.

    Cached module-wide so the cohort engine can build 10^5-10^6 client
    generators over the same ``(n, theta)`` without recomputing (or
    re-storing) the table per client.  The final bucket is clamped to
    exactly 1.0 to guard against floating-point drift.
    """
    cdf = list(itertools.accumulate(zipf_pmf(n, theta)))
    cdf[-1] = 1.0
    return tuple(cdf)


@lru_cache(maxsize=128)
def rank_items(
    n: int, offset: int = 0, universe: Optional[int] = None
) -> Tuple[int, ...]:
    """The item each rank ``1..n`` maps to: rank 1 is item ``1 + offset``,
    wrapping around inside ``1..universe`` when one is given.

    Shared like :func:`zipf_cdf` -- one table per process for each
    ``(n, offset, universe)``, however many generators sample through it.
    """
    if universe is None:
        return tuple(range(1 + offset, 1 + offset + n))
    return tuple((rank + offset) % universe + 1 for rank in range(n))


def _draw_closure(
    items: Tuple[int, ...], cdf: Tuple[float, ...], rand: Callable[[], float]
) -> Callable[[], int]:
    """The one sampling definition: a uniform, a bisect, a table read.

    ``cdf[-1]`` is exactly 1.0 and ``rand()`` stays below it, so the
    bisect always lands inside ``items``.
    """
    lookup = bisect.bisect_left

    def draw() -> int:
        return items[lookup(cdf, rand())]

    return draw


class ZipfGenerator:
    """Samples item numbers ``first .. first + n - 1`` with Zipf skew.

    Rank 1 (the hottest item) maps to ``first``, rank 2 to ``first + 1``
    and so on, matching the paper's convention that the access range is a
    prefix ``1..ReadRange`` of the broadcast ``1..BroadcastSize``.

    Parameters
    ----------
    n:
        Number of distinct items in the range.
    theta:
        Skew parameter; 0 is uniform, larger is more skewed.
    rng:
        Source of randomness; pass a seeded :class:`random.Random` for
        reproducible simulations.
    first:
        Item number that rank 1 maps to (default 1).
    """

    def __init__(
        self,
        n: int,
        theta: float,
        rng: Optional[random.Random] = None,
        first: int = 1,
    ) -> None:
        self.n = n
        self.theta = theta
        self.first = first
        self._rng = rng if rng is not None else random.Random()
        self._cdf = zipf_cdf(n, theta)
        self._items = self._rank_items()
        #: Draw one item number: the closure every sampling method (and
        #: the transaction engine's planner) goes through.
        self.draw = _draw_closure(self._items, self._cdf, self._rng.random)

    def _rank_items(self) -> Tuple[int, ...]:
        return rank_items(self.n, self.first - 1)

    def probability(self, item: int) -> float:
        """Probability of sampling ``item`` (0.0 outside the range)."""
        rank = item - self.first + 1
        if rank < 1 or rank > self.n:
            return 0.0
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo

    def support(self) -> Sequence[int]:
        """All items this generator can emit, hottest first."""
        return list(self._items)

    def sample(self) -> int:
        """Draw one item number."""
        return self.draw()

    def sample_distinct(self, count: int) -> List[int]:
        """Draw ``count`` *distinct* item numbers, preserving draw order.

        Used for transaction read/write sets where re-reading the same item
        would shrink the effective operation count.
        """
        if count > self.n:
            raise ValueError(
                f"Cannot draw {count} distinct items from a range of {self.n}"
            )
        draw = self.draw
        seen: set = set()
        result: List[int] = []
        # Rejection sampling is fast while count << n; past the attempt
        # limit, fill deterministically from the hottest remaining ranks.
        attempts = 50 * count + 100
        while len(result) < count and attempts:
            attempts -= 1
            item = draw()
            if item not in seen:
                seen.add(item)
                result.append(item)
        remaining = (item for item in self._items if item not in seen)
        result.extend(itertools.islice(remaining, count - len(result)))
        return result

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.sample()


class OffsetZipfGenerator(ZipfGenerator):
    """A Zipf sampler whose output is rotated by ``offset`` items.

    The rotation happens inside a wrapping universe ``1..universe`` (the
    broadcast range): rank 1 maps to item ``1 + offset``, and items that
    would fall off the end wrap around to the beginning.  With
    ``offset = 0`` this is exactly :class:`ZipfGenerator`; growing offsets
    move the server's update hot-spot away from the client's read hot-spot,
    reducing the overlap of the two distributions.
    """

    def __init__(
        self,
        n: int,
        theta: float,
        offset: int = 0,
        universe: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.offset = offset
        self.universe = universe if universe is not None else n + offset
        if self.universe < n:
            raise ValueError(
                f"universe ({self.universe}) smaller than range size ({n})"
            )
        super().__init__(n, theta, rng=rng)

    def _rank_items(self) -> Tuple[int, ...]:
        return rank_items(self.n, self.offset, self.universe)

    def probability(self, item: int) -> float:
        """Probability of sampling ``item`` after the rotation."""
        # Invert the shift: find the pre-image in the base range.
        base_item = (item - 1 - self.offset) % self.universe + 1
        return super().probability(base_item)

    def overlap(self, other: "OffsetZipfGenerator") -> float:
        """Bhattacharyya-style overlap with another generator in [0, 1].

        Computed as ``sum(min(p_self(i), p_other(i)))`` over the shared
        universe; 1.0 means identical access patterns, 0.0 means disjoint.
        Used by tests to sanity-check that growing the offset shrinks the
        overlap, mirroring the prose of Section 5.1.
        """
        universe = max(self.universe, other.universe)
        total = 0.0
        for item in range(1, universe + 1):
            total += min(self.probability(item), other.probability(item))
        return total

"""Client query workload generation (Section 5.1's client column).

A query is a fixed set of distinct items drawn Zipf-skewed from the
client's ``ReadRange`` prefix of the broadcast.  The read order is the
draw order by default; with the "transaction optimization" of Section 2.2
enabled, reads are reordered by broadcast position to minimize the span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from typing import List, Optional, Sequence

from repro.config import ClientParameters
from repro.stats.zipf import ZipfGenerator


@dataclass(frozen=True)
class Query:
    """One read-only transaction's plan: the items, in access order."""

    query_id: int
    items: Sequence[int]

    @property
    def size(self) -> int:
        return len(self.items)


class QueryGenerator:
    """Draws queries according to the client parameters."""

    def __init__(
        self,
        params: ClientParameters,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.params = params
        self._rng = rng if rng is not None else random.Random()
        self._zipf = ZipfGenerator(
            n=params.read_range, theta=params.theta, rng=self._rng
        )
        self._next_id = 0
        # ``expovariate(1.0 / mean)`` spelled out with its draw bound
        # once: the stdlib's formula, one uniform per think time.
        self._random = self._rng.random
        mean = params.think_time
        self._lambd = 0.0 if mean <= 0 else 1.0 / mean

    def next_query(self) -> Query:
        """Draw the next query's item set."""
        items: List[int] = self._zipf.sample_distinct(self.params.ops_per_query)
        if self.params.sort_reads:
            items.sort()
        query = Query(query_id=self._next_id, items=tuple(items))
        self._next_id += 1
        return query

    def think_time(self) -> float:
        """Idle slots before the next read (exponential around the mean,
        so clients do not lock-step with the broadcast)."""
        if not self._lambd:
            return 0.0
        return -log(1.0 - self._random()) / self._lambd

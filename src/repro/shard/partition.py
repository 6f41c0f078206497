"""Item-space partitioners for the sharded broadcast server.

A partitioner is a pure function from item id to shard index, fixed for
the lifetime of a simulation.  Two are provided:

* :class:`HashPartitioner` -- a multiplicative hash of the item id.  The
  assignment of any single item depends only on ``(item, num_shards)``,
  so growing the item universe never moves existing items between shards
  (the property tests pin this down).  Hot items scatter uniformly, which
  balances update load but makes almost every multi-item query
  cross-shard.
* :class:`RangePartitioner` -- contiguous blocks of the item space.  A
  query over a narrow item range stays on one shard (good locality), but
  a Zipf-skewed update workload concentrates on the shard holding the hot
  range (the skew property test demonstrates the imbalance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

#: Knuth's multiplicative constant (golden ratio of 2^64), the same mix
#: used to derive per-shard fault seeds in :mod:`repro.shard.runtime`.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class Partitioner(ABC):
    """Maps every item of a fixed universe onto one of ``num_shards``."""

    #: Registry key and CLI spelling (``--partitioner hash``).
    name: str = ""

    def __init__(self, num_shards: int, universe: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if universe < num_shards:
            raise ValueError(
                f"cannot split {universe} items over {num_shards} shards"
            )
        self.num_shards = num_shards
        self.universe = universe

    @abstractmethod
    def shard_of(self, item: int) -> int:
        """Shard index in ``[0, num_shards)`` owning ``item``."""

    def items_of(self, shard: int) -> List[int]:
        """Sorted item ids of ``shard`` (the shard's broadcast schedule)."""
        return [
            item
            for item in range(1, self.universe + 1)
            if self.shard_of(item) == shard
        ]


class HashPartitioner(Partitioner):
    """Multiplicative-hash assignment; stable under universe growth."""

    name = "hash"

    def shard_of(self, item: int) -> int:
        return (((item * _MIX) & _MASK) >> 32) % self.num_shards


class RangePartitioner(Partitioner):
    """Contiguous equal ranges; shard boundaries move when the universe
    grows (it is *not* growth-stable, unlike the hash partitioner)."""

    name = "range"

    def shard_of(self, item: int) -> int:
        if not 1 <= item <= self.universe:
            # Out-of-universe items hash onto the last shard deterministically
            # rather than raising: the verify layer probes freely.
            return self.num_shards - 1
        return min(
            self.num_shards - 1, (item - 1) * self.num_shards // self.universe
        )


#: CLI name -> class, for ``repro run --partitioner``.
PARTITIONERS: Dict[str, type] = {
    HashPartitioner.name: HashPartitioner,
    RangePartitioner.name: RangePartitioner,
}


def make_partitioner(name: str, num_shards: int, universe: int) -> Partitioner:
    """Instantiate a registered partitioner by CLI name."""
    try:
        cls = PARTITIONERS[name]
    except KeyError:
        known = ", ".join(sorted(PARTITIONERS))
        raise ValueError(f"Unknown partitioner {name!r}; known: {known}")
    return cls(num_shards, universe)

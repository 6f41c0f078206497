"""Reference model of the commit path, for ``test_engine_equivalence``.

The sampling methods, the restricted (shard) generator, the
transaction-at-a-time ``_generate_transaction`` and the serial
``run_batch`` loop below are the engine as it stood before it was split
into plan and execute (commit 77205e2), bodies verbatim: one scalar
inverse-CDF draw per access with the rotation applied per draw, and
every conflict tracked into a shadow graph whether or not anyone hears
it.  Nothing here shares sampling or execution code with ``src/`` -- only
the CDF table, the data types and the stores -- so agreement with it
means the rebuilt engine consumes the same uniforms in the same order
and commits the same thing.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.graph.history import History
from repro.graph.sgraph import GraphDiff, SerializationGraph, TxnId
from repro.server.transactions import CycleOutcome, ServerTransaction
from repro.stats.zipf import zipf_cdf


class ReferenceZipf:
    def __init__(self, n, theta, rng=None, first=1):
        self.n = n
        self.theta = theta
        self.first = first
        self._rng = rng if rng is not None else random.Random()
        self._cdf = zipf_cdf(n, theta)

    def probability(self, item: int) -> float:
        rank = item - self.first + 1
        if rank < 1 or rank > self.n:
            return 0.0
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo

    def sample(self) -> int:
        u = self._rng.random()
        rank = bisect.bisect_left(self._cdf, u) + 1
        return self.first + min(rank, self.n) - 1

    def sample_distinct(self, count: int) -> List[int]:
        if count > self.n:
            raise ValueError(
                f"Cannot draw {count} distinct items from a range of {self.n}"
            )
        seen: set = set()
        result: List[int] = []
        attempts = 0
        limit = 50 * count + 100
        while len(result) < count and attempts < limit:
            item = self.sample()
            attempts += 1
            if item not in seen:
                seen.add(item)
                result.append(item)
        while len(result) < count:
            # Deterministic fill from hottest remaining rank.
            for rank in range(1, self.n + 1):
                item = self.first + rank - 1
                if item not in seen:
                    seen.add(item)
                    result.append(item)
                    break
        return result


class ReferenceOffsetZipf:
    def __init__(self, n, theta, offset=0, universe=None, rng=None):
        self.offset = offset
        self.universe = universe if universe is not None else n + offset
        self._base = ReferenceZipf(n, theta, rng=rng)

    @property
    def n(self) -> int:
        return self._base.n

    def _shift(self, item: int) -> int:
        return (item - 1 + self.offset) % self.universe + 1

    def probability(self, item: int) -> float:
        base_item = (item - 1 - self.offset) % self.universe + 1
        return self._base.probability(base_item)

    def sample(self) -> int:
        return self._shift(self._base.sample())

    def sample_distinct(self, count: int) -> List[int]:
        return [self._shift(item) for item in self._base.sample_distinct(count)]

    def support(self):
        return [self._shift(i) for i in range(1, self.n + 1)]


class ReferenceRestricted:
    _REJECT_CAP = 64

    def __init__(self, inner, allowed: FrozenSet[int]) -> None:
        self._inner = inner
        self._allowed = allowed
        self._support = sorted(item for item in inner.support() if item in allowed)
        if not self._support:
            raise ValueError("restriction leaves the generator with no support")

    def sample(self) -> int:
        item = 0
        for _ in range(self._REJECT_CAP):
            item = self._inner.sample()
            if item in self._allowed:
                return item
        return self._support[(item - 1) % len(self._support)]

    def sample_distinct(self, count: int) -> List[int]:
        count = min(count, len(self._support))
        picked: List[int] = []
        seen: Set[int] = set()
        budget = self._REJECT_CAP * count + self._REJECT_CAP
        while len(picked) < count and budget > 0:
            budget -= 1
            item = self._inner.sample()
            if item in self._allowed and item not in seen:
                seen.add(item)
                picked.append(item)
        if len(picked) < count:
            # Deterministic fill from the hottest remaining allowed items.
            ranked = sorted(
                (item for item in self._support if item not in seen),
                key=lambda item: (-self._inner.probability(item), item),
            )
            picked.extend(ranked[: count - len(picked)])
        return picked


class ReferenceEngine:
    def __init__(
        self,
        params,
        database,
        version_store=None,
        rng=None,
        keep_history=False,
        interleaved=False,
        restrict_items=None,
    ) -> None:
        self.params = params
        self.database = database
        self.version_store = version_store
        self._rng = rng if rng is not None else random.Random()
        self._executor = None
        self.last_interleave = None
        if interleaved:
            from repro.server.interleave import InterleavedExecutor

            self._executor = InterleavedExecutor(
                rng=random.Random(self._rng.getrandbits(64))
            )
        self._update_gen = ReferenceOffsetZipf(
            n=params.update_range,
            theta=params.theta,
            offset=params.offset,
            universe=params.broadcast_size,
            rng=self._rng,
        )
        self._read_gen = ReferenceOffsetZipf(
            n=params.broadcast_size,
            theta=params.theta,
            offset=params.offset,
            universe=params.broadcast_size,
            rng=self._rng,
        )
        if restrict_items is not None:
            self._update_gen = ReferenceRestricted(self._update_gen, restrict_items)
            self._read_gen = ReferenceRestricted(self._read_gen, restrict_items)
        self._last_writer: Dict[int, TxnId] = {}
        self._readers_since_write: Dict[int, Set[TxnId]] = {}
        self.graph = SerializationGraph()
        self.history: Optional[History] = History() if keep_history else None

    def _generate_transaction(self, tid: TxnId) -> ServerTransaction:
        """Draw one transaction's read and write sets."""
        n_updates = self.params.updates_per_transaction
        n_extra_reads = n_updates * (self.params.reads_per_update - 1)
        writes = self._update_gen.sample_distinct(n_updates)
        reads: List[int] = list(writes)
        seen = set(writes)
        attempts = 0
        while len(reads) < n_updates + n_extra_reads and attempts < 50 * (
            n_extra_reads + 1
        ):
            item = self._read_gen.sample()
            attempts += 1
            if item not in seen:
                seen.add(item)
                reads.append(item)
        return ServerTransaction(
            tid=tid, readset=frozenset(reads), writeset=frozenset(writes)
        )

    def run_batch(self, cycle: int, seqs) -> CycleOutcome:
        visible_at = cycle + 1
        committed: List[ServerTransaction] = []
        updated: Set[int] = set()
        first_writers: Dict[int, TxnId] = {}
        diff_edges: Set[Tuple[TxnId, TxnId]] = set()
        diff_nodes: Set[TxnId] = set()

        generated = [
            self._generate_transaction(TxnId(cycle=cycle, seq=seq)) for seq in seqs
        ]
        if self._executor is not None:
            # Interleaved strict-2PL execution: the commit order emerges
            # from actual lock contention; the bookkeeping below then runs
            # in that order (conflict-equivalent by strictness).
            result = self._executor.run(generated)
            generated = result.commit_order
            self.last_interleave = result

        for txn in generated:
            tid = txn.tid
            committed.append(txn)
            diff_nodes.add(tid)
            self.graph.add_node(tid, cycle=cycle)

            # Reads first (strict 2PL, read-before-write): dependency edges
            # from the last writer of each item read.
            for item in sorted(txn.readset):
                if self.history is not None:
                    self.history.read(tid, item)
                writer = self._last_writer.get(item)
                if writer is not None and writer != tid:
                    diff_edges.add((writer, tid))
                    self.graph.add_edge(writer, tid)
                self._readers_since_write.setdefault(item, set()).add(tid)

            # Then the writes: ww edge from the last writer, rw (precedence)
            # edges from every reader since that write.
            for item in sorted(txn.writeset):
                if self.history is not None:
                    self.history.write(tid, item)
                writer = self._last_writer.get(item)
                if writer is not None and writer != tid:
                    diff_edges.add((writer, tid))
                    self.graph.add_edge(writer, tid)
                for reader in self._readers_since_write.get(item, ()):
                    if reader != tid:
                        diff_edges.add((reader, tid))
                        self.graph.add_edge(reader, tid)
                self._readers_since_write[item] = set()
                self._last_writer[item] = tid

                previous = self.database.current(item)
                self.database.write(item, visible_cycle=visible_at, writer=tid)
                if self.version_store is not None and previous.cycle < visible_at:
                    # The previous value was current up to this cycle; park
                    # it in the old-version area of the broadcast.
                    self.version_store.record_supersedure(
                        previous, superseded_at=visible_at
                    )

                updated.add(item)
                first_writers.setdefault(item, tid)

            if self.history is not None:
                self.history.commit(tid)

        if self.version_store is not None:
            self.version_store.evict_expired(visible_at)

        return CycleOutcome(
            cycle=cycle,
            transactions=tuple(committed),
            updated_items=frozenset(updated),
            first_writers=first_writers,
            diff=GraphDiff(
                cycle=cycle,
                nodes=frozenset(diff_nodes),
                edges=frozenset(diff_edges),
            ),
        )

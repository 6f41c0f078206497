"""The server's update workload: strict-2PL transactions with Zipf access.

Each broadcast cycle, ``N`` transactions commit at the server.  Following
the performance model of Section 5.1:

* updates are drawn from a Zipf distribution over ``1..UpdateRange``
  rotated by ``offset`` (the deviation from the client read pattern);
* server reads are four times as frequent as updates, drawn from the full
  broadcast range with "zero offset with the update set" -- i.e. rotated
  by the *same* offset so the server's read and write hot-spots coincide;
* every transaction reads an item before writing it (the paper's standing
  assumption in Section 3.3), so the write set is a subset of the read
  set.

**The contract.**  Transactions run under strict two-phase locking, and
every strict-2PL history is conflict-equivalent to the serial history in
commit order.  The engine therefore never interleaves operations: a
batch is *planned* -- :meth:`TransactionEngine._plan` draws all its read
and write sets, consuming the RNG exactly as a transaction-at-a-time
loop would -- and then *executed* in one pass in commit order
(:meth:`TransactionEngine._execute`).  :mod:`repro.server.interleave`
runs the same planned batch against a real lock manager and hands back
the commit order that emerged; it is the executable evidence for the
equivalence, and the only thing it changes here is that order.  Claim 1
of the paper -- no edges flow backwards into earlier cycles -- holds by
construction, as it does for any strict history.

**What is tracked when.**  Execution always yields what every broadcast
carries: the committed transactions, the updated items, each item's
first writer, the :meth:`Database.write` calls and the supersedures
handed to the version store.  The conflict bookkeeping -- last writer
and readers-since-write per item, and from them the
:class:`~repro.graph.sgraph.GraphDiff` -- is kept only with
``track_conflicts``: an audience of invalidation-only or multiversion
clients never hears a graph diff, and then ``CycleOutcome.diff`` is
``None`` (not an empty diff, which an SGT client would trust).
``keep_history`` adds the oracle's artefacts on top: the operation
:class:`~repro.graph.history.History`, the full server
:class:`~repro.graph.sgraph.SerializationGraph` and the outcome log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.config import ServerParameters
from repro.graph.history import History
from repro.graph.sgraph import GraphDiff, SerializationGraph, TxnId
from repro.server.database import Database, Version
from repro.server.columnar import ColumnarVersionStore
from repro.stats.zipf import OffsetZipfGenerator


@dataclass(frozen=True)
class ServerTransaction:
    """A committed server transaction: its id, read set and write set."""

    tid: TxnId
    readset: FrozenSet[int]
    writeset: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.writeset <= self.readset:
            raise ValueError(
                f"{self.tid}: write set must be a subset of the read set"
            )


@dataclass(frozen=True)
class CycleOutcome:
    """Everything the broadcast builder needs about one cycle's commits.

    Attributes
    ----------
    cycle:
        The cycle *during* which these transactions committed.  Their
        values become visible (broadcast) at cycle ``cycle + 1``.
    transactions:
        The committed transactions, in commit order.
    updated_items:
        Union of the write sets.
    first_writers:
        For each updated item, the first transaction of this cycle that
        wrote it (the augmented invalidation report of Section 3.3).
    diff:
        The serialization-graph difference to broadcast: every conflict
        edge whose head committed this cycle.  ``None`` from an engine
        that does not track conflicts.
    """

    cycle: int
    transactions: Tuple[ServerTransaction, ...]
    updated_items: FrozenSet[int]
    first_writers: Dict[int, TxnId]
    diff: Optional[GraphDiff]


def merge_outcomes(parts: List[CycleOutcome]) -> CycleOutcome:
    """Combine the per-interval partial outcomes of one cycle (§7's
    sub-cycle report extension) into the full cycle outcome the next
    cycle's main report announces."""
    if not parts:
        raise ValueError("Nothing to merge")
    cycle = parts[0].cycle
    if any(p.cycle != cycle for p in parts):
        raise ValueError("Cannot merge outcomes from different cycles")
    transactions: List[ServerTransaction] = []
    updated: Set[int] = set()
    first_writers: Dict[int, TxnId] = {}
    # One engine ran every part, so all of them carry a diff or none does.
    tracked = parts[0].diff is not None
    nodes: Set[TxnId] = set()
    edges: Set[Tuple[TxnId, TxnId]] = set()
    for part in parts:
        transactions.extend(part.transactions)
        updated |= part.updated_items
        for item, tid in part.first_writers.items():
            # Earlier intervals ran first: keep the earliest writer.
            if item not in first_writers:
                first_writers[item] = tid
        if tracked:
            nodes |= part.diff.nodes
            edges |= part.diff.edges
    return CycleOutcome(
        cycle=cycle,
        transactions=tuple(transactions),
        updated_items=frozenset(updated),
        first_writers=first_writers,
        diff=(
            GraphDiff(cycle=cycle, nodes=frozenset(nodes), edges=frozenset(edges))
            if tracked
            else None
        ),
    )


class _RestrictedGenerator:
    """A Zipf generator restricted to a subset of its support.

    The sharded server (:mod:`repro.shard`) gives each shard its own
    engine but wants the *global* Zipf access skew: draws from the
    underlying generator are kept only when they land on this shard's
    items, so an item's relative popularity within the shard matches its
    global popularity exactly.  Rejection is capped; the rare exhausted
    draw falls back onto the allowed support deterministically (indexed
    by the last rejected item) so the engine can never stall.
    """

    _REJECT_CAP = 64

    def __init__(self, inner: OffsetZipfGenerator, allowed: FrozenSet[int]) -> None:
        self._inner = inner
        self._allowed = allowed
        self._support = sorted(item for item in inner.support() if item in allowed)
        if not self._support:
            raise ValueError("restriction leaves the generator with no support")
        #: The inner generator's draw closure behind the rejection loop.
        self.draw = self._rejecting(inner.draw)

    def _rejecting(self, inner_draw: Callable[[], int]) -> Callable[[], int]:
        allowed, support, cap = self._allowed, self._support, self._REJECT_CAP

        def draw() -> int:
            item = 0
            for _ in range(cap):
                item = inner_draw()
                if item in allowed:
                    return item
            return support[(item - 1) % len(support)]

        return draw

    def support(self) -> List[int]:
        return list(self._support)

    def probability(self, item: int) -> float:
        return self._inner.probability(item) if item in self._allowed else 0.0

    def sample(self) -> int:
        return self.draw()

    def sample_distinct(self, count: int) -> List[int]:
        count = min(count, len(self._support))
        inner_draw = self._inner.draw
        picked: List[int] = []
        seen: Set[int] = set()
        budget = self._REJECT_CAP * count + self._REJECT_CAP
        while len(picked) < count and budget > 0:
            budget -= 1
            item = inner_draw()
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


class TransactionEngine:
    """Generates and executes the per-cycle server update workload.

    ``track_conflicts`` keeps the per-item conflict bookkeeping that
    yields ``CycleOutcome.diff`` (see the module docstring); it defaults
    to on, the safe side for an engine built by hand, and
    :func:`~repro.server.substrate.build_substrate` turns it off when
    nothing on the air or in the oracle needs it.
    """

    def __init__(
        self,
        params: ServerParameters,
        database: Database,
        version_store: Optional[ColumnarVersionStore] = None,
        rng: Optional[random.Random] = None,
        keep_history: bool = False,
        interleaved: bool = False,
        restrict_items: Optional[FrozenSet[int]] = None,
        track_conflicts: bool = True,
    ) -> None:
        if keep_history and not track_conflicts:
            # The history is recorded by the conflict pass; without it the
            # oracle would replay an empty history and pass vacuously.
            raise ValueError("keep_history needs track_conflicts")
        self.params = params
        self.database = database
        self.version_store = version_store
        self._rng = rng if rng is not None else random.Random()
        self._executor = None
        #: Diagnostics of the most recent interleaved batch.
        self.last_interleave = None
        if interleaved:
            from repro.server.interleave import InterleavedExecutor

            self._executor = InterleavedExecutor(
                rng=random.Random(self._rng.getrandbits(64))
            )
        self._update_gen = OffsetZipfGenerator(
            n=params.update_range,
            theta=params.theta,
            offset=params.offset,
            universe=params.broadcast_size,
            rng=self._rng,
        )
        self._read_gen = OffsetZipfGenerator(
            n=params.broadcast_size,
            theta=params.theta,
            offset=params.offset,
            universe=params.broadcast_size,
            rng=self._rng,
        )
        if restrict_items is not None:
            # Sharded server (repro.shard): this engine owns one shard's
            # slice of the item space; every draw is filtered onto it.
            self._update_gen = _RestrictedGenerator(
                self._update_gen, restrict_items
            )
            self._read_gen = _RestrictedGenerator(
                self._read_gen, restrict_items
            )
        self._tracking = track_conflicts
        #: Cross-cycle conflict bookkeeping (tracking engines only).
        self._last_writer: Dict[int, TxnId] = {}
        #: Readers are remembered only for items that can ever be written:
        #: nothing consumes (or clears) the reader set of any other item.
        self._writable: FrozenSet[int] = frozenset(self._update_gen.support())
        self._readers_since_write: Dict[int, Set[TxnId]] = {}
        #: The oracle's artefacts, kept under ``keep_history`` only: the
        #: complete operation history, the full committed-transaction
        #: graph and the log of cycle outcomes.
        self.history: Optional[History] = History() if keep_history else None
        self.graph: Optional[SerializationGraph] = (
            SerializationGraph() if keep_history else None
        )
        self._outcomes: List[CycleOutcome] = []

    # -- planning -------------------------------------------------------------

    def _plan(self, cycle: int, seqs: Iterable[int]) -> List[ServerTransaction]:
        """Draw the read and write sets of transactions ``seqs``, consuming
        uniforms in the order a transaction-at-a-time loop would."""
        n_updates = self.params.updates_per_transaction
        n_reads = n_updates * self.params.reads_per_update
        max_attempts = 50 * (n_reads - n_updates + 1)
        draw_writes = self._update_gen.sample_distinct
        draw_read = self._read_gen.draw
        planned: List[ServerTransaction] = []
        for seq in seqs:
            writes = draw_writes(n_updates)
            reads: List[int] = list(writes)
            seen = set(writes)
            attempts = 0
            while len(reads) < n_reads and attempts < max_attempts:
                item = draw_read()
                attempts += 1
                if item not in seen:
                    seen.add(item)
                    reads.append(item)
            planned.append(
                ServerTransaction(
                    tid=TxnId(cycle, seq),
                    readset=frozenset(reads),
                    writeset=frozenset(writes),
                )
            )
        return planned

    # -- execution ----------------------------------------------------------

    def run_cycle(self, cycle: int) -> CycleOutcome:
        """Commit this cycle's ``N`` transactions and return the outcome.

        Values written become visible at cycle ``cycle + 1``.
        """
        outcome = self.run_batch(
            cycle, range(self.params.transactions_per_cycle)
        )
        self.record_outcome(outcome)
        return outcome

    def run_batch(self, cycle: int, seqs: Iterable[int]) -> CycleOutcome:
        """Commit the transactions with sequence numbers ``seqs`` of cycle
        ``cycle``.

        Used directly by the sub-cycle report extension (§7): the server
        loop splits a cycle's commits over the report intervals and merges
        the partial outcomes with :func:`merge_outcomes`.
        """
        planned = self._plan(cycle, seqs)
        if self._executor is not None:
            # Interleaved strict-2PL execution: the commit order emerges
            # from actual lock contention; execution then runs in that
            # order (conflict-equivalent by strictness).
            result = self._executor.run(planned)
            planned = result.commit_order
            self.last_interleave = result
        return self._execute(cycle, planned)

    def _execute(
        self, cycle: int, ordered: List[ServerTransaction]
    ) -> CycleOutcome:
        """Apply ``ordered`` (already in commit order) to the database."""
        visible_at = cycle + 1
        updated: Set[int] = set()
        first_writers: Dict[int, TxnId] = {}
        nodes: Set[TxnId] = set()
        edges: Set[Tuple[TxnId, TxnId]] = set()
        tracking = self._tracking
        current, write = self.database.current, self.database.write
        store = self.version_store

        for txn in ordered:
            tid = txn.tid
            writes = sorted(txn.writeset)
            if tracking:
                nodes.add(tid)
                self._note_conflicts(tid, sorted(txn.readset), writes, edges)
            for item in writes:
                previous = current(item)
                write(item, visible_cycle=visible_at, writer=tid)
                if store is not None and previous.cycle < visible_at:
                    # The previous value was current up to this cycle; park
                    # it in the old-version area of the broadcast.
                    store.record_supersedure(previous, superseded_at=visible_at)
                updated.add(item)
                first_writers.setdefault(item, tid)

        if store is not None:
            store.evict_expired(visible_at)

        diff = None
        if tracking:
            diff = GraphDiff(
                cycle=cycle, nodes=frozenset(nodes), edges=frozenset(edges)
            )
            if self.graph is not None:
                self.graph.apply_diff(diff)
        return CycleOutcome(
            cycle=cycle,
            transactions=tuple(ordered),
            updated_items=frozenset(updated),
            first_writers=first_writers,
            diff=diff,
        )

    def _note_conflicts(
        self,
        tid: TxnId,
        reads: List[int],
        writes: List[int],
        edges: Set[Tuple[TxnId, TxnId]],
    ) -> None:
        """One transaction's conflict edges, into ``edges``."""
        history = self.history
        last_writer = self._last_writer
        readers = self._readers_since_write
        writable = self._writable
        # Reads first (strict 2PL, read-before-write): dependency edges
        # from the last writer of each item read.
        for item in reads:
            if history is not None:
                history.read(tid, item)
            writer = last_writer.get(item)
            if writer is not None and writer != tid:
                edges.add((writer, tid))
            if item in writable:
                readers.setdefault(item, set()).add(tid)
        # Then the writes: ww edge from the last writer, rw (precedence)
        # edges from every reader since that write.
        for item in writes:
            if history is not None:
                history.write(tid, item)
            writer = last_writer.get(item)
            if writer is not None and writer != tid:
                edges.add((writer, tid))
            for reader in readers.pop(item, ()):
                if reader != tid:
                    edges.add((reader, tid))
            last_writer[item] = tid
        if history is not None:
            history.commit(tid)

    def record_outcome(self, outcome: CycleOutcome) -> None:
        """Log a (possibly merged) cycle outcome for later inspection;
        like the history, the log is kept under ``keep_history`` only."""
        if self.history is not None:
            self._outcomes.append(outcome)

    # -- inspection ----------------------------------------------------------

    @property
    def outcomes(self) -> List[CycleOutcome]:
        return list(self._outcomes)

    def last_writer_of(self, item: int) -> Optional[TxnId]:
        """Committed last writer of ``item`` (broadcast item tag), as far
        as a tracking engine has seen."""
        return self._last_writer.get(item)

    def prune_graph_before(self, cycle: int) -> int:
        """Bound the ``keep_history`` graph's memory (mirrors the client's
        Lemma 1); nothing to prune on the serving path."""
        return self.graph.prune_before(cycle) if self.graph is not None else 0

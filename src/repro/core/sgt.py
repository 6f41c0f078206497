"""Serialization-graph testing (Section 3.3, Theorem 3).

The client maintains a local copy of the server's serialization graph,
extended with its own active read-only transactions:

* at each cycle start it integrates the broadcast graph *diff* and, for
  every active query ``R`` invalidated by the (augmented) report, adds a
  precedence edge ``R -> T_f`` to the *first* transaction that overwrote
  the item during the previous cycle (Claim 2: one edge suffices);
* every read adds a dependency edge ``T_l -> R`` from the *last* writer
  tagged on the broadcast item (Claim 3) and is accepted only if the edge
  closes no cycle.

The scheme accepts strictly more queries than invalidation-only: a query
whose read values happen to be mutually consistent commits even though
items it read were updated.  The space bound of the paper's
"Space Efficiency" paragraph is honoured by pruning every server subgraph
older than the earliest first-invalidation cycle among active queries
(Lemma 1 makes those unreachable from any future cycle through ``R``)
before each diff is folded in, and folding in only the part of the diff
at or above that horizon.

The ``enhanced_disconnections`` flag implements the §5.2.2 enhancement:
version numbers are broadcast with items, and after missing cycles a
query may continue as long as it only reads values created before the
gap; without the flag a missed cycle dooms every active query.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.broadcast.program import BroadcastProgram
from repro.core.base import ReadAborted, ReportCheckedScheme
from repro.core.control import BroadcastRequirements
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    ReadResult,
)
from repro.graph.sgraph import SerializationGraph


class SerializationGraphTesting(ReportCheckedScheme):
    """Accept a read iff it keeps the local serialization graph acyclic."""

    name = "sgt"

    def __init__(
        self,
        use_cache: bool = False,
        enhanced_disconnections: bool = False,
    ) -> None:
        super().__init__(use_cache=use_cache)
        self.enhanced_disconnections = enhanced_disconnections
        self.graph = SerializationGraph()
        #: First-invalidation cycle per active query (the paper's ``o``).
        self._first_invalidation: Dict[str, int] = {}
        #: Enhanced mode: per-query upper bound on acceptable versions,
        #: frozen at the last cycle heard before a gap.
        self._version_bound: Dict[str, int] = {}
        self._last_heard: Optional[int] = None

    def requirements(self) -> BroadcastRequirements:
        return BroadcastRequirements(
            needs_sgt=True,
            needs_versions_on_items=self.enhanced_disconnections,
        )

    @property
    def label(self) -> str:
        suffix = "+cache" if self.use_cache else ""
        enhanced = "/enhanced" if self.enhanced_disconnections else ""
        return f"{self.name}{enhanced}{suffix}"

    # -- cycle starts -----------------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        control = program.control
        report = control.invalidation
        for txn in self._active.values():
            if not txn.is_active or report.updated_items.isdisjoint(txn.reads):
                continue
            edged = []
            for item in report.invalidates(txn.readset):
                first_writer = report.first_writers.get(item)
                if first_writer is None:
                    continue
                # Precedence edge R -> T_f; by Lemma 1 (part ii of the
                # proof) adding it can never itself close a cycle.
                self.graph.add_node(first_writer, cycle=first_writer.cycle)
                self.graph.add_node(txn.txn_id)
                self.graph.add_edge(txn.txn_id, first_writer)
                self._first_invalidation.setdefault(txn.txn_id, report.cycle)
                edged.append(item)
            if edged:
                # Not an abort -- but if a later read closes a cycle, the
                # chain shows which invalidation pulled the query into it.
                txn.cause_chain.append(
                    {
                        "event": "invalidation",
                        "report_cycle": report.cycle,
                        "items": sorted(edged),
                        "terminal": False,
                    }
                )

        # Space efficiency: only subgraphs since the earliest ``o`` of an
        # active query can join a future cycle through a query (Lemma 1).
        # Drop the older ones first, then fold in only the part of the
        # new diff at or above that horizon: most of its edges come from
        # writers and readers of long-gone cycles.
        if self._first_invalidation:
            horizon = min(self._first_invalidation.values()) - 1
        else:
            horizon = program.cycle - 1
        self.graph.prune_before(horizon)
        if control.graph_diff is not None:
            self.graph.apply_diff(control.graph_diff, horizon)
        self._last_heard = program.cycle

    def on_missed_cycle(self, cycle: int) -> None:
        if not self.enhanced_disconnections:
            # The graph can no longer be kept consistent: every active
            # query dies and the stale graph is dropped; future diffs
            # rebuild what future queries can possibly need.
            for txn in self._doom_active(cycle):
                self.end(txn)
            self.graph = SerializationGraph()
            return
        # Enhanced mode: freeze each spanning query's acceptable-version
        # bound at the last cycle it heard completely.
        if self._last_heard is not None:
            for txn in self._active.values():
                if txn.is_active:
                    bound = self._version_bound.get(txn.txn_id, self._last_heard)
                    self._version_bound[txn.txn_id] = min(bound, self._last_heard)

    # -- checkpoint / recovery (see repro.resilience) ----------------------------

    def export_state(self):
        """Snapshot the serialization graph and its anchor cycle."""
        return {"graph": self.graph.copy(), "last_heard": self._last_heard}

    def restore_state(self, state, cycles_missed: int) -> None:
        """Adopt a checkpointed graph *only* across a gap-free restart.

        The broadcast retransmission window carries invalidation reports
        but no graph diffs, so a graph missing the diffs of even one
        unheard cycle lacks edges -- and a missing edge can wrongly
        *accept* a cyclic read.  After any gap the safe move is the same
        as :meth:`on_missed_cycle`: start from an empty graph and let
        future diffs rebuild what future queries can reach.
        """
        if cycles_missed > 0:
            return
        self.graph = state["graph"].copy()
        self._last_heard = state["last_heard"]

    def reset_state(self) -> None:
        self.graph = SerializationGraph()
        self._last_heard = None

    # -- transaction lifecycle ------------------------------------------------------

    def begin(self, txn: ReadOnlyTransaction) -> None:
        super().begin(txn)
        self.graph.add_node(txn.txn_id)

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        record, cycle, from_cache = yield from self._read_current(item)

        bound = self._version_bound.get(txn.txn_id)
        if bound is not None and record.version > bound:
            raise ReadAborted(
                AbortReason.DISCONNECTED,
                f"{txn.txn_id}: item {item} was written during or after a "
                f"missed cycle (version {record.version} > bound {bound})",
                cause={
                    "event": "version_bound",
                    "item": item,
                    "version": record.version,
                    "bound": bound,
                },
            )

        writer = record.writer
        if writer is not None:
            # Dependency edge T_l -> R (Claim 3: the last writer alone
            # preserves all cycles).  Reject the read if it closes one.
            self.graph.add_node(writer, cycle=writer.cycle)
            if not self.graph.add_edge_checked(writer, txn.txn_id):
                raise ReadAborted(
                    AbortReason.CYCLE_DETECTED,
                    f"{txn.txn_id}: reading item {item} from {writer} would "
                    "close a serialization cycle",
                    cause={
                        "event": "sgt_cycle",
                        "item": item,
                        "writer": str(writer),
                    },
                )
        return self._result_from_record(record, cycle, from_cache)

    def end(self, txn: ReadOnlyTransaction) -> None:
        super().end(txn)
        self._first_invalidation.pop(txn.txn_id, None)
        self._version_bound.pop(txn.txn_id, None)
        self.graph.remove_node(txn.txn_id)

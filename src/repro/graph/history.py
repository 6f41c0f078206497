"""Recorded operation histories and the serializability oracle.

The client-side SGT protocol takes shortcuts (only first-writer precedence
edges and last-writer dependency edges -- Claims 2 and 3).  To test those
shortcuts we need ground truth: this module records the *complete* history
of reads and writes and rebuilds the full conflict serialization graph from
first principles.  A history is serializable iff that graph is acyclic
(the serialization theorem of [Bernstein, Hadzilacos, Goodman 1987], which
the paper invokes as [7]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.graph.sgraph import SerializationGraph

Node = Hashable


class OpType(Enum):
    """Operation flavour in a recorded history."""

    READ = "r"
    WRITE = "w"


@dataclass(frozen=True)
class Operation:
    """One read or write of ``item`` by ``txn`` at history position ``pos``."""

    pos: int
    txn: Node
    op: OpType
    item: int


class History:
    """An append-only schedule of operations with commit bookkeeping.

    Operations are recorded in execution order; ``commit`` marks a
    transaction as committed.  The serialization graph is built over
    committed transactions only, matching the paper's definition.
    """

    def __init__(self) -> None:
        self._operations: List[Operation] = []
        self._committed: Set[Node] = set()
        self._aborted: Set[Node] = set()
        #: Monotone position counter -- survives :meth:`discard`, so
        #: positions stay unique and ordered even after victim restarts.
        self._next_pos = 0

    # -- recording -----------------------------------------------------------

    def read(self, txn: Node, item: int) -> Operation:
        return self._append(txn, OpType.READ, item)

    def write(self, txn: Node, item: int) -> Operation:
        return self._append(txn, OpType.WRITE, item)

    def _append(self, txn: Node, op: OpType, item: int) -> Operation:
        if txn in self._committed or txn in self._aborted:
            raise ValueError(f"Transaction {txn!r} already terminated")
        operation = Operation(self._next_pos, txn, op, item)
        self._next_pos += 1
        self._operations.append(operation)
        return operation

    def commit(self, txn: Node) -> None:
        if txn in self._aborted:
            raise ValueError(f"Transaction {txn!r} already aborted")
        self._committed.add(txn)

    def abort(self, txn: Node) -> None:
        if txn in self._committed:
            raise ValueError(f"Transaction {txn!r} already committed")
        self._aborted.add(txn)

    def discard(self, txn: Node) -> None:
        """Erase every trace of an uncommitted transaction (2PL victim
        restart: under strict locking nobody observed its footprint)."""
        if txn in self._committed:
            raise ValueError(f"Cannot discard committed transaction {txn!r}")
        self._operations = [op for op in self._operations if op.txn != txn]
        self._aborted.discard(txn)

    # -- inspection ------------------------------------------------------------

    @property
    def operations(self) -> List[Operation]:
        return list(self._operations)

    @property
    def committed(self) -> Set[Node]:
        return set(self._committed)

    def readset(self, txn: Node) -> Set[int]:
        return {
            op.item
            for op in self._operations
            if op.txn == txn and op.op is OpType.READ
        }

    def writeset(self, txn: Node) -> Set[int]:
        return {
            op.item
            for op in self._operations
            if op.txn == txn and op.op is OpType.WRITE
        }

    # -- the oracle --------------------------------------------------------------

    def serialization_graph(
        self, include: Optional[Iterable[Node]] = None
    ) -> SerializationGraph:
        """Build the conflict serialization graph (reachability-reduced).

        Nodes are all committed transactions (plus any in ``include``,
        letting tests fold in a read-only transaction that has not
        "committed" in the server sense).  There is an edge ``Ti -> Tj``
        whenever some operation of ``Ti`` precedes and conflicts with an
        operation of ``Tj`` -- except that edges implied transitively by
        the per-item write chain are omitted (``w1 -> w3`` is covered by
        ``w1 -> w2 -> w3``).  Reachability, and therefore cyclicity, is
        identical to the full conflict graph's, at linear instead of
        quadratic cost in the per-item operation count.
        """
        members = set(self._committed)
        if include is not None:
            members.update(include)

        graph = SerializationGraph()
        for txn in members:
            graph.add_node(txn)

        last_writer: Dict[int, Node] = {}
        readers_since_write: Dict[int, set] = {}
        for op in self._operations:
            if op.txn not in members:
                continue
            if op.op is OpType.READ:
                writer = last_writer.get(op.item)
                if writer is not None and writer != op.txn:
                    graph.add_edge(writer, op.txn)
                readers_since_write.setdefault(op.item, set()).add(op.txn)
            else:
                writer = last_writer.get(op.item)
                if writer is not None and writer != op.txn:
                    graph.add_edge(writer, op.txn)
                for reader in readers_since_write.get(op.item, ()):
                    if reader != op.txn:
                        graph.add_edge(reader, op.txn)
                readers_since_write[op.item] = set()
                last_writer[op.item] = op.txn
        return graph

    def is_serializable(self, include: Optional[Iterable[Node]] = None) -> bool:
        """Serialization theorem: acyclic full graph <=> serializable."""
        return not self.serialization_graph(include).has_cycle()

"""Directed serialization graph with incremental cycle detection.

Terminology follows Section 3.3 of the paper:

* Nodes are transactions.  Server transactions are identified by
  :class:`TxnId` -- a ``(cycle, seq)`` pair, because the paper notes that
  transaction identifiers need only be unique within a broadcast cycle
  (``log N`` bits) once the cycle number is known.
* *Dependency* edges ``T -> R`` mean ``R`` read a value written by ``T``.
* *Precedence* edges ``R -> T`` mean ``T`` (over)wrote an item previously
  read by ``R``.
* ``SG^i`` is the subgraph of transactions committed during cycle ``i``;
  Claim 1 guarantees no edges flow from later cycles back into ``SG^i``,
  which is what makes Lemma-1 pruning sound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

Node = Hashable


class TxnId(NamedTuple):
    """Identifier of a server transaction: commit cycle plus sequence number.

    The paper encodes these on the air as ``log(S) + log(N)`` bits (cycle
    relative to the current bcast, sequence within the cycle); here we keep
    the absolute cycle for clarity and let the sizing model account for the
    wire encoding.

    A tuple, so hashing, equality, ordering and construction run in C:
    the commit path hashes thousands of these a cycle.  The hash is
    ``hash((cycle, seq))``, which is also what a frozen dataclass of the
    same two fields hashes to -- sets of ids iterate in the same order
    either way, which recorded runs depend on.
    """

    cycle: int
    seq: int

    def __str__(self) -> str:
        return f"T{self.cycle}.{self.seq}"


@dataclass(frozen=True)
class GraphDiff:
    """The per-cycle graph update the server puts on the air.

    ``edges`` holds ``(from, to)`` pairs where the *to* transaction was
    committed in the cycle the diff describes and the *from* transaction is
    any earlier (or same-cycle) transaction it conflicts with, matching the
    broadcast format of Section 3.3 ("pairs of conflicting transactions
    where the first ... is a newly committed transaction" -- we orient
    edges from the earlier conflicting party toward the new commit, which
    is the direction conflicts can point under Claim 1).
    """

    cycle: int
    nodes: FrozenSet[TxnId] = frozenset()
    edges: FrozenSet[Tuple[TxnId, TxnId]] = frozenset()

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def above(
        self, horizon: float
    ) -> Tuple[List[TxnId], List[Tuple[TxnId, TxnId]]]:
        """The part of this diff at or above ``horizon``: every node it
        names (its own and its edges' ends) committed at or after
        ``horizon``, and every edge whose two ends both were."""
        node_cycles, nodes, edge_floors, edges = self._ladder
        return (
            nodes[bisect_left(node_cycles, horizon):],
            edges[bisect_left(edge_floors, horizon):],
        )

    @cached_property
    def _ladder(self) -> tuple:
        # Sorted once per diff and shared by every client that folds it
        # in, so each of them pays only for the part it keeps.
        nodes = sorted(self.nodes.union(*self.edges))
        edges = sorted(self.edges, key=_edge_floor)
        return [n.cycle for n in nodes], nodes, list(map(_edge_floor, edges)), edges


def _edge_floor(edge: Tuple[TxnId, TxnId]) -> int:
    return min(edge[0].cycle, edge[1].cycle)


class SerializationGraph:
    """A directed graph over transactions with cycle-test insertion.

    The client keeps one instance; the server keeps another restricted to
    committed server transactions (always acyclic because server
    transactions are serialized by strict 2PL in commit order).
    """

    def __init__(self) -> None:
        self._successors: Dict[Node, Set[Node]] = {}
        self._predecessors: Dict[Node, Set[Node]] = {}
        #: commit cycle per server node; client read-only txns have none.
        self._node_cycle: Dict[Node, int] = {}
        #: ``SG^i`` membership, commit cycle -> its nodes: pruning visits
        #: only the subgraphs it drops, never the ones it keeps.
        self._by_cycle: Dict[int, Set[Node]] = {}

    # -- basic structure ---------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._successors

    def __len__(self) -> int:
        return len(self._successors)

    def nodes(self) -> Iterator[Node]:
        return iter(self._successors)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for u, targets in self._successors.items():
            for v in targets:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self._successors.values())

    def successors(self, node: Node) -> Set[Node]:
        return set(self._successors.get(node, ()))

    def predecessors(self, node: Node) -> Set[Node]:
        return set(self._predecessors.get(node, ()))

    def cycle_of(self, node: Node) -> Optional[int]:
        """Commit cycle of ``node`` (None for client-local transactions)."""
        return self._node_cycle.get(node)

    def add_node(self, node: Node, cycle: Optional[int] = None) -> None:
        """Insert ``node`` (idempotent); ``cycle`` tags server commits."""
        if node not in self._successors:
            self._successors[node] = set()
            self._predecessors[node] = set()
        if cycle is not None and self._node_cycle.get(node) != cycle:
            self._untag(node)
            self._node_cycle[node] = cycle
            self._by_cycle.setdefault(cycle, set()).add(node)

    def _untag(self, node: Node) -> None:
        cycle = self._node_cycle.pop(node, None)
        if cycle is not None:
            group = self._by_cycle[cycle]
            group.discard(node)
            if not group:
                del self._by_cycle[cycle]

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node in self._successors:
            self._untag(node)
            self._unlink(node)

    def _unlink(self, node: Node) -> None:
        for succ in self._successors.pop(node):
            self._predecessors[succ].discard(node)
        for pred in self._predecessors.pop(node):
            self._successors[pred].discard(node)

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._successors.get(u, ())

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert edge ``u -> v`` unconditionally (nodes auto-created)."""
        if u == v:
            raise ValueError(f"Self-loop on {u!r} is not a serialization edge")
        self.add_node(u)
        self.add_node(v)
        self._successors[u].add(v)
        self._predecessors[v].add(u)

    # -- cycle detection -----------------------------------------------------

    def reachable(self, source: Node, target: Node) -> bool:
        """Is ``target`` reachable from ``source`` along directed edges?"""
        if source not in self._successors or target not in self._successors:
            return False
        if source == target:
            return True
        stack = [source]
        seen = {source}
        while stack:
            node = stack.pop()
            for succ in self._successors.get(node, ()):
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def would_close_cycle(self, u: Node, v: Node) -> bool:
        """Would adding ``u -> v`` create a cycle?

        True iff ``u`` is already reachable from ``v``.
        """
        if u == v:
            return True
        return self.reachable(v, u)

    def add_edge_checked(self, u: Node, v: Node) -> bool:
        """Add ``u -> v`` only if it closes no cycle.

        Returns ``True`` when the edge was added, ``False`` when it was
        rejected.  This is the client's read-acceptance test.
        """
        if self.would_close_cycle(u, v):
            return False
        self.add_edge(u, v)
        return True

    def has_cycle(self) -> bool:
        """Full-graph acyclicity check (Kahn's algorithm); used by tests."""
        indegree = {node: len(self._predecessors[node]) for node in self._successors}
        queue = [node for node, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for succ in self._successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        return visited != len(self._successors)

    # -- broadcast integration ------------------------------------------------

    def apply_diff(self, diff: GraphDiff, horizon: Optional[int] = None) -> None:
        """Fold a per-cycle server diff into this (client-side) graph.

        With ``horizon``, only the part at or above it: a node committed
        before ``horizon`` and every edge touching one stay out.  That is
        exactly what ``prune_before(horizon)`` would take out again, so
        ``prune_before(h); apply_diff(d, h)`` leaves the graph that
        ``apply_diff(d); prune_before(h)`` leaves, without building and
        tearing down the old writers and readers the diff's edges name.
        """
        nodes, edges = diff.above(-math.inf if horizon is None else horizon)
        tags = self._node_cycle
        for node in nodes:
            if tags.get(node) != node.cycle:
                self.add_node(node, node.cycle)
        successors, predecessors = self._successors, self._predecessors
        for u, v in edges:
            successors[u].add(v)
            predecessors[v].add(u)

    def prune_before(self, cycle: int, keep: Iterable[Node] = ()) -> int:
        """Drop all server subgraphs ``SG^k`` with ``k < cycle``.

        ``keep`` protects nodes (e.g. active read-only transactions'
        neighbours) from removal.  Returns the number of nodes removed.
        Per the paper's space-efficiency argument, subgraphs older than the
        first invalidation cycle of every active query are irrelevant.
        The cost is the dropped subgraphs' size, not the graph's.
        """
        protected = set(keep)
        removed = 0
        for k in [k for k in self._by_cycle if k < cycle]:
            group = self._by_cycle.pop(k)
            kept = group & protected
            if kept:
                self._by_cycle[k] = kept
                group -= kept
            for node in group:
                del self._node_cycle[node]
                self._unlink(node)
            removed += len(group)
        return removed

    def subgraph_cycles(self) -> Dict[int, Set[Node]]:
        """Server nodes grouped by commit cycle (``SG^i`` membership map)."""
        return {cycle: set(group) for cycle, group in self._by_cycle.items()}

    def copy(self) -> "SerializationGraph":
        clone = SerializationGraph()
        clone._successors = {n: set(s) for n, s in self._successors.items()}
        clone._predecessors = {n: set(p) for n, p in self._predecessors.items()}
        clone._node_cycle = dict(self._node_cycle)
        clone._by_cycle = self.subgraph_cycles()
        return clone

    def __repr__(self) -> str:
        return (
            f"<SerializationGraph nodes={len(self._successors)} "
            f"edges={self.edge_count}>"
        )

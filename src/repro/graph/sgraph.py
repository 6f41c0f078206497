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

from dataclasses import dataclass
from enum import Enum
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


class EdgeKind(Enum):
    """Why an edge exists (Section 3.3's two edge flavours)."""

    DEPENDENCY = "dependency"  # T -> R : R read T's write
    PRECEDENCE = "precedence"  # R -> T : T overwrote R's read
    CONFLICT = "conflict"  # server-side ww/wr/rw conflict edge


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


class SerializationGraph:
    """A directed graph over transactions with cycle-test insertion.

    The client keeps one instance; the server keeps another restricted to
    committed server transactions (always acyclic because server
    transactions are serialized by strict 2PL in commit order).
    """

    def __init__(self) -> None:
        self._successors: Dict[Node, Set[Node]] = {}
        self._predecessors: Dict[Node, Set[Node]] = {}
        #: commit cycle per server node; client read-only txns have None.
        self._node_cycle: Dict[Node, Optional[int]] = {}

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
        if cycle is not None:
            self._node_cycle[node] = cycle

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._successors:
            return
        for succ in self._successors.pop(node):
            self._predecessors[succ].discard(node)
        for pred in self._predecessors.pop(node):
            self._successors[pred].discard(node)
        self._node_cycle.pop(node, None)

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

    def find_cycle(self) -> Optional[List[Node]]:
        """Return one cycle as a node list, or ``None`` if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self._successors}
        parent: Dict[Node, Optional[Node]] = {}

        for root in self._successors:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[Node, Iterator[Node]]] = [
                (root, iter(self._successors[root]))
            ]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == GRAY:
                        # Found a back edge: unwind the cycle.
                        cycle = [child, node]
                        walker = parent[node]
                        while walker is not None and walker != child:
                            cycle.append(walker)
                            walker = parent[walker]
                        cycle.reverse()
                        return cycle
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, iter(self._successors[child])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    # -- broadcast integration ------------------------------------------------

    def apply_diff(self, diff: GraphDiff) -> None:
        """Fold a per-cycle server diff into this (client-side) graph."""
        for node in diff.nodes:
            self.add_node(node, cycle=node.cycle)
        for u, v in diff.edges:
            self.add_node(u, cycle=u.cycle if isinstance(u, TxnId) else None)
            self.add_node(v, cycle=v.cycle if isinstance(v, TxnId) else None)
            self._successors[u].add(v)
            self._predecessors[v].add(u)

    def prune_before(self, cycle: int, keep: Iterable[Node] = ()) -> int:
        """Drop all server subgraphs ``SG^k`` with ``k < cycle``.

        ``keep`` protects nodes (e.g. active read-only transactions'
        neighbours) from removal.  Returns the number of nodes removed.
        Per the paper's space-efficiency argument, subgraphs older than the
        first invalidation cycle of every active query are irrelevant.
        """
        protected = set(keep)
        victims = [
            node
            for node, node_cycle in self._node_cycle.items()
            if node_cycle is not None and node_cycle < cycle and node not in protected
        ]
        for node in victims:
            self.remove_node(node)
        return len(victims)

    def subgraph_cycles(self) -> Dict[int, Set[Node]]:
        """Server nodes grouped by commit cycle (``SG^i`` membership map)."""
        groups: Dict[int, Set[Node]] = {}
        for node, cycle in self._node_cycle.items():
            if cycle is not None:
                groups.setdefault(cycle, set()).add(node)
        return groups

    def copy(self) -> "SerializationGraph":
        clone = SerializationGraph()
        clone._successors = {n: set(s) for n, s in self._successors.items()}
        clone._predecessors = {n: set(p) for n, p in self._predecessors.items()}
        clone._node_cycle = dict(self._node_cycle)
        return clone

    def __repr__(self) -> str:
        return (
            f"<SerializationGraph nodes={len(self._successors)} "
            f"edges={self.edge_count}>"
        )

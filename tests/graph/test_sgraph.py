"""Tests for the serialization graph and incremental cycle detection."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.graph.sgraph import GraphDiff, SerializationGraph, TxnId
from repro.live.codec import CycleCodec, WireProfile
from repro.server.substrate import build_substrate


class TestBasicStructure:
    def test_add_node_idempotent(self):
        g = SerializationGraph()
        g.add_node("a", cycle=1)
        g.add_node("a")
        assert len(g) == 1
        assert g.cycle_of("a") == 1

    def test_add_edge_creates_nodes(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")
        assert g.successors("a") == {"b"}
        assert g.predecessors("b") == {"a"}

    def test_self_loop_rejected(self):
        g = SerializationGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_remove_node_cleans_edges(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert "b" not in g
        assert g.successors("a") == set()
        assert g.predecessors("c") == set()

    def test_remove_missing_node_is_noop(self):
        g = SerializationGraph()
        g.remove_node("ghost")

    def test_edge_count_and_edges_iterator(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.edge_count == 2
        assert set(g.edges()) == {("a", "b"), ("a", "c")}

    def test_copy_is_independent(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        clone = g.copy()
        clone.add_edge("b", "c")
        assert not g.has_edge("b", "c")


class TestCycleDetection:
    def test_reachability(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.reachable("a", "c")
        assert not g.reachable("c", "a")
        assert g.reachable("a", "a")
        assert not g.reachable("a", "missing")

    def test_would_close_cycle(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.would_close_cycle("c", "a")
        assert not g.would_close_cycle("a", "c")
        assert g.would_close_cycle("a", "a")

    def test_add_edge_checked_accepts_and_rejects(self):
        g = SerializationGraph()
        assert g.add_edge_checked("a", "b")
        assert g.add_edge_checked("b", "c")
        assert not g.add_edge_checked("c", "a")
        assert not g.has_edge("c", "a")
        assert not g.has_cycle()

    def test_has_cycle_on_dag_and_cycle(self):
        g = SerializationGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        assert not g.has_cycle()
        g.add_edge("c", "a")
        assert g.has_cycle()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_agrees_with_networkx(self, seed):
        """Random edge insertions: our incremental accept/reject must agree
        with networkx's from-scratch cycle check at every step."""
        rng = random.Random(seed)
        nodes = list(range(10))
        ours = SerializationGraph()
        theirs = nx.DiGraph()
        theirs.add_nodes_from(nodes)
        for node in nodes:
            ours.add_node(node)
        for _ in range(25):
            u, v = rng.sample(nodes, 2)
            would_cycle = nx.has_path(theirs, v, u)
            accepted = ours.add_edge_checked(u, v)
            assert accepted == (not would_cycle)
            if accepted:
                theirs.add_edge(u, v)
            assert not ours.has_cycle()
            assert nx.is_directed_acyclic_graph(theirs)


class TestPruningAndDiffs:
    def test_prune_before_removes_old_server_subgraphs(self):
        g = SerializationGraph()
        old = TxnId(cycle=1, seq=0)
        new = TxnId(cycle=5, seq=0)
        g.add_node(old, cycle=1)
        g.add_node(new, cycle=5)
        g.add_node("R")  # client node: no cycle tag, never pruned
        g.add_edge(old, new)
        removed = g.prune_before(3)
        assert removed == 1
        assert old not in g
        assert new in g
        assert "R" in g

    def test_prune_keeps_protected_nodes(self):
        g = SerializationGraph()
        old = TxnId(cycle=1, seq=0)
        g.add_node(old, cycle=1)
        assert g.prune_before(5, keep=[old]) == 0
        assert old in g

    def test_subgraph_cycles_grouping(self):
        g = SerializationGraph()
        a, b, c = TxnId(1, 0), TxnId(1, 1), TxnId(2, 0)
        for node in (a, b, c):
            g.add_node(node, cycle=node.cycle)
        groups = g.subgraph_cycles()
        assert groups == {1: {a, b}, 2: {c}}

    def test_apply_diff_adds_nodes_and_edges(self):
        g = SerializationGraph()
        t1, t2 = TxnId(3, 0), TxnId(3, 1)
        diff = GraphDiff(cycle=3, nodes=frozenset({t1, t2}), edges=frozenset({(t1, t2)}))
        g.apply_diff(diff)
        assert g.has_edge(t1, t2)
        assert g.cycle_of(t1) == 3

    def test_apply_diff_referencing_unknown_old_node(self):
        g = SerializationGraph()
        old, new = TxnId(1, 0), TxnId(4, 0)
        diff = GraphDiff(cycle=4, nodes=frozenset({new}), edges=frozenset({(old, new)}))
        g.apply_diff(diff)
        assert g.has_edge(old, new)
        assert g.cycle_of(old) == 1


class TestTxnId:
    def test_ordering_and_str(self):
        assert TxnId(1, 5) < TxnId(2, 0)
        assert TxnId(2, 0) < TxnId(2, 1)
        assert str(TxnId(3, 7)) == "T3.7"

    def test_hashable_and_frozen(self):
        tid = TxnId(1, 1)
        assert {tid: "x"}[TxnId(1, 1)] == "x"
        with pytest.raises(AttributeError):
            tid.cycle = 9

    @given(
        a=st.tuples(st.integers(0, 2**40), st.integers(0, 2**20)),
        b=st.tuples(st.integers(0, 2**40), st.integers(0, 2**20)),
    )
    def test_is_its_cycle_seq_pair_to_hash_and_order(self, a, b):
        """Recorded runs rest on this: a set of ids iterates in the order
        the same set of ``(cycle, seq)`` pairs would, and ids sort as
        their pairs do."""
        assert hash(TxnId(*a)) == hash(a)
        assert (TxnId(*a) < TxnId(*b)) == (a < b)
        assert (TxnId(*a) == TxnId(*b)) == (a == b)
        assert str(TxnId(*a)) == f"T{a[0]}.{a[1]}"

    def test_never_equals_a_clients_string_id(self):
        """Server and client transactions share one graph's node space."""
        tid = TxnId(3, 7)
        assert tid != str(tid) and tid != "c0.q3.a1"
        g = SerializationGraph()
        g.add_edge(tid, str(tid))
        assert len(g) == 2

    def test_control_segment_round_trips_writers_and_edges(self):
        server = ServerParameters()
        requirements = BroadcastRequirements(needs_sgt=True)
        substrate = build_substrate(server, requirements, random.Random(3))
        codec = CycleCodec(WireProfile.from_params(server, requirements))
        outcome = None
        for cycle in range(1, 5):
            program = substrate.builder.build(cycle, outcome)
            frames = codec.encode_cycle(program, 0)
            decoded, _ = codec.decode_cycle(frames)
            assert decoded.control.graph_diff == program.control.graph_diff
            assert (
                decoded.control.invalidation.first_writers
                == program.control.invalidation.first_writers
            )
            assert CycleCodec(codec.profile).encode_cycle(decoded, 0) == frames
            outcome = substrate.engine.run_cycle(cycle)
        assert program.control.graph_diff.edges
        assert program.control.invalidation.first_writers
        assert all(
            type(tid) is TxnId
            for edge in decoded.control.graph_diff.edges
            for tid in edge
        )

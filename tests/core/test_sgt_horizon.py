"""The SGT client prunes by cycle first, then folds in only the part of
each graph diff at or above the Lemma 1 horizon.

Three nets under that order:

* graph level -- ``prune_before(h); apply_diff(d, h)`` leaves exactly the
  graph ``apply_diff(d); prune_before(h)`` leaves, and the per-cycle
  index (``subgraph_cycles``) always agrees with the node tags;
* scheme level -- a run whose clients fold in the whole diff first (the
  order before the horizon came first, kept here as a twin) ends with the
  same metrics, bit for bit, and every client with the same graph;
* the bound itself -- after every cycle start no server subgraph older
  than the horizon is left, and the diffs really do carry a part below
  it (so the first two nets are not vacuous).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params
from repro.core.sgt import SerializationGraphTesting
from repro.graph.sgraph import GraphDiff, SerializationGraph, TxnId
from repro.runtime import Simulation
from tests.sim.test_kernel_golden import registry_digest


def shape(graph):
    """Everything a graph holds: nodes, edges, tags and the index."""
    return (
        set(graph.nodes()),
        set(graph.edges()),
        {node: graph.cycle_of(node) for node in graph.nodes()},
        graph.subgraph_cycles(),
    )


def index_from_tags(graph):
    groups = {}
    for node in graph.nodes():
        cycle = graph.cycle_of(node)
        if cycle is not None:
            groups.setdefault(cycle, set()).add(node)
    return groups


# -- graph level ---------------------------------------------------------------

txn_ids = st.builds(TxnId, st.integers(0, 8), st.integers(0, 3))
clients = st.sampled_from(["R0", "R1", "R2"])
nodes = st.one_of(txn_ids, clients)


@st.composite
def graphs(draw):
    """Server nodes carry their own commit cycle, as every writer of one
    does; client nodes carry none."""
    graph = SerializationGraph()
    for node in draw(st.lists(nodes, max_size=12)):
        graph.add_node(node, node.cycle if isinstance(node, TxnId) else None)
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=20)):
        if u != v:
            for end in (u, v):
                graph.add_node(end, end.cycle if isinstance(end, TxnId) else None)
            graph.add_edge(u, v)
    return graph


diffs = st.builds(
    GraphDiff,
    cycle=st.integers(0, 8),
    nodes=st.frozensets(txn_ids, max_size=6),
    edges=st.frozensets(
        st.tuples(txn_ids, txn_ids).filter(lambda e: e[0] != e[1]), max_size=12
    ),
)


@given(graph=graphs(), diff=diffs, horizon=st.integers(-1, 10))
@settings(max_examples=200, deadline=None)
def test_prune_first_then_fold_above_equals_fold_all_then_prune(graph, diff, horizon):
    whole = graph.copy()
    whole.apply_diff(diff)
    whole_removed = whole.prune_before(horizon)
    first = graph.copy()
    first_removed = first.prune_before(horizon)
    first.apply_diff(diff, horizon)
    assert shape(first) == shape(whole)
    # The prune-first order never builds what it would tear down.
    assert first_removed <= whole_removed


@given(
    graph=graphs(),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("diff"), diffs, st.integers(-1, 10)),
            st.tuples(st.just("prune"), st.integers(-1, 10), st.lists(nodes, max_size=3)),
            st.tuples(st.just("remove"), nodes),
            st.tuples(st.just("retag"), nodes, st.integers(0, 8)),
        ),
        max_size=10,
    ),
)
@settings(max_examples=150, deadline=None)
def test_index_agrees_with_tags(graph, steps):
    for step in steps:
        if step[0] == "diff":
            graph.apply_diff(step[1], step[2])
        elif step[0] == "prune":
            graph.prune_before(step[1], keep=step[2])
        elif step[0] == "remove":
            graph.remove_node(step[1])
        else:
            graph.add_node(step[1], cycle=step[2])
        assert graph.subgraph_cycles() == index_from_tags(graph)
        assert all(group for group in graph.subgraph_cycles().values())


def test_above_slices_one_sorted_ladder():
    a, b, c = TxnId(2, 0), TxnId(5, 1), TxnId(6, 0)
    diff = GraphDiff(cycle=6, nodes=frozenset({c}), edges=frozenset({(a, c), (b, c)}))
    assert diff.above(0) == ([a, b, c], [(a, c), (b, c)])
    assert diff.above(3) == ([b, c], [(b, c)])
    assert diff.above(6) == ([c], [])
    assert diff.above(7) == ([], [])
    # The ladder is a cache, not a field: equality and hash ignore it.
    twin = GraphDiff(cycle=6, nodes=frozenset({c}), edges=frozenset({(a, c), (b, c)}))
    assert diff == twin and hash(diff) == hash(twin) and repr(diff) == repr(twin)


def test_prune_costs_the_dropped_subgraphs_only():
    graph = SerializationGraph()
    for cycle in range(10):
        for seq in range(3):
            graph.add_node(TxnId(cycle, seq), cycle=cycle)
    graph.add_edge(TxnId(2, 0), TxnId(7, 1))
    assert graph.prune_before(5, keep=[TxnId(4, 2)]) == 14
    assert sorted(graph.subgraph_cycles()) == [4, 5, 6, 7, 8, 9]
    assert graph.subgraph_cycles()[4] == {TxnId(4, 2)}
    assert graph.predecessors(TxnId(7, 1)) == set()
    assert graph.prune_before(5) == 1 and graph.prune_before(5) == 0


def test_copy_owns_its_index():
    graph = SerializationGraph()
    graph.add_node(TxnId(1, 0), cycle=1)
    graph.add_node(TxnId(3, 0), cycle=3)
    clone = graph.copy()
    assert clone.prune_before(2) == 1
    assert graph.subgraph_cycles() == {1: {TxnId(1, 0)}, 3: {TxnId(3, 0)}}
    assert clone.subgraph_cycles() == {3: {TxnId(3, 0)}}


# -- scheme level --------------------------------------------------------------


class WholeDiffFirst(SerializationGraphTesting):
    """The twin: the whole diff goes in before the report's edges and the
    prune, as it did before the horizon came first."""

    def on_cycle_start(self, program):
        if program.control.graph_diff is not None:
            self.graph.apply_diff(program.control.graph_diff)
        super().on_cycle_start(program)


class Audited(SerializationGraphTesting):
    """Checks the Lemma 1 bound after every cycle start, and counts into
    ``below`` the diff edges that reach under the horizon."""

    def __init__(self, below, **kwargs):
        super().__init__(**kwargs)
        self.below = below

    def on_cycle_start(self, program):
        super().on_cycle_start(program)
        if self._first_invalidation:
            horizon = min(self._first_invalidation.values()) - 1
        else:
            horizon = program.cycle - 1
        assert min(self.graph.subgraph_cycles(), default=horizon) >= horizon
        diff = program.control.graph_diff
        if diff is not None:
            self.below.append(
                sum(u.cycle < horizon or v.cycle < horizon for u, v in diff.edges)
            )


SCHEMES = {
    "sgt": {},
    "sgt+cache": {"use_cache": True},
    "sgt/enhanced": {"enhanced_disconnections": True},
}
ENGINES = {"discrete": Simulation, "cohort": CohortSimulation}


def _run(engine, factory, faults, seed):
    """Registry digest, plus every client's final graph where the engine
    keeps its clients (a cohort run releases them)."""
    params = oracle_params(6, seed, faults, num_cycles=50)
    sim = ENGINES[engine](params, scheme_factory=factory)
    result = sim.run()
    graphs = [shape(s.graph) for s in sim.schemes] if engine == "discrete" else []
    return registry_digest(result.metrics), graphs


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("faults", [False, True])
@pytest.mark.parametrize("seed", [7, 11])
def test_same_run_as_folding_in_the_whole_diff(engine, scheme, faults, seed):
    kwargs = SCHEMES[scheme]
    ours = _run(engine, lambda: SerializationGraphTesting(**kwargs), faults, seed)
    twin = _run(engine, lambda: WholeDiffFirst(**kwargs), faults, seed)
    assert ours == twin


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("faults", [False, True])
def test_no_subgraph_below_the_horizon_survives_a_cycle_start(engine, faults):
    below = []
    _run(engine, lambda: Audited(below, use_cache=True), faults, 11)
    assert below and sum(below) > 0

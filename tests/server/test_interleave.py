"""Tests for interleaved strict-2PL execution of server transactions.

The key property justifying the engine's serial bookkeeping: every
interleaved history produced under the lock manager is (a) strict,
(b) serializable, and (c) conflict-equivalent to its commit order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServerParameters
from repro.graph.history import OpType
from repro.graph.sgraph import TxnId
from repro.server.database import Database
from repro.server.interleave import InterleavedExecutor
from repro.server.transactions import ServerTransaction, TransactionEngine


def make_txns(seed, n_txns=6, n_items=8, cycle=1):
    rng = random.Random(seed)
    txns = []
    for seq in range(n_txns):
        writes = frozenset(rng.sample(range(1, n_items + 1), rng.randint(1, 2)))
        extra = frozenset(rng.sample(range(1, n_items + 1), rng.randint(1, 3)))
        txns.append(
            ServerTransaction(
                tid=TxnId(cycle=cycle, seq=seq),
                readset=writes | extra,
                writeset=writes,
            )
        )
    return txns


def history_is_strict(history):
    """No item is read or overwritten between a write and the writer's
    commit (with bulk release at commit, equivalent to: in the recorded
    history no other transaction touches an item after a write until the
    writer has no further operations pending... we check the direct
    formulation on operation order vs commit order)."""
    ops = history.operations
    commit_position = {}
    for txn in history.committed:
        last = max(op.pos for op in ops if op.txn == txn)
        commit_position[txn] = last
    for i, op in enumerate(ops):
        if op.op is not OpType.WRITE:
            continue
        for later in ops[i + 1 :]:
            if later.item != op.item or later.txn == op.txn:
                continue
            # The writer must have "committed" (no ops after) before any
            # other transaction touches the item.
            if later.pos <= commit_position[op.txn]:
                return False
    return True


class TestExecutor:
    def test_all_transactions_commit(self):
        txns = make_txns(seed=1)
        result = InterleavedExecutor(rng=random.Random(2)).run(txns)
        assert len(result.commit_order) == len(txns)
        assert {t.tid for t in result.commit_order} == {t.tid for t in txns}
        assert not result.stats.serial_fallback

    def test_history_contains_every_operation(self):
        txns = make_txns(seed=3)
        result = InterleavedExecutor(rng=random.Random(4)).run(txns)
        for txn in txns:
            assert result.history.readset(txn.tid) == set(txn.readset)
            assert result.history.writeset(txn.tid) == set(txn.writeset)

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_property_history_is_strict_and_serializable(self, seed):
        txns = make_txns(seed=seed)
        result = InterleavedExecutor(rng=random.Random(seed + 1)).run(txns)
        assert not result.stats.serial_fallback
        assert result.history.is_serializable()
        assert history_is_strict(result.history)

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_property_conflicts_agree_with_commit_order(self, seed):
        """Conflict edges in the interleaved history always point forward
        in commit order (strictness => commit-order serializability)."""
        txns = make_txns(seed=seed)
        result = InterleavedExecutor(rng=random.Random(seed + 7)).run(txns)
        order = {t.tid: i for i, t in enumerate(result.commit_order)}
        graph = result.history.serialization_graph()
        for u, v in graph.edges():
            assert order[u] < order[v], (
                f"conflict {u} -> {v} against commit order at seed {seed}"
            )

    def test_contention_produces_blocking(self):
        # Everybody writes the same item: maximal contention.
        txns = [
            ServerTransaction(
                tid=TxnId(1, seq), readset=frozenset({1}), writeset=frozenset({1})
            )
            for seq in range(5)
        ]
        result = InterleavedExecutor(rng=random.Random(0)).run(txns)
        assert len(result.commit_order) == 5
        assert result.stats.blocks > 0
        assert result.history.is_serializable()


class TestEngineIntegration:
    def make_engine(self, interleaved):
        params = ServerParameters(
            broadcast_size=40,
            update_range=20,
            offset=0,
            updates_per_cycle=10,
            transactions_per_cycle=5,
        )
        db = Database(params.broadcast_size)
        return (
            TransactionEngine(
                params,
                db,
                rng=random.Random(11),
                keep_history=True,
                interleaved=interleaved,
            ),
            db,
        )

    def test_interleaved_engine_runs_cycles(self):
        engine, db = self.make_engine(interleaved=True)
        for cycle in range(1, 6):
            outcome = engine.run_cycle(cycle)
            assert len(outcome.transactions) == 5
        assert engine.history.is_serializable()
        assert not engine.graph.has_cycle()
        assert engine.last_interleave is not None

    def test_interleaved_diff_edges_forward_in_commit_order(self):
        engine, _ = self.make_engine(interleaved=True)
        outcome = engine.run_cycle(1)
        order = {t.tid: i for i, t in enumerate(outcome.transactions)}
        for u, v in outcome.diff.edges:
            if u.cycle == v.cycle == 1:
                assert order[u] < order[v]

    def test_interleaved_same_workload_different_order(self):
        """Same RNG-generated transactions; the emergent commit order may
        differ from sequence order (that is the point)."""
        engine, _ = self.make_engine(interleaved=True)
        reordered = False
        for cycle in range(1, 15):
            outcome = engine.run_cycle(cycle)
            seqs = [t.tid.seq for t in outcome.transactions]
            if seqs != sorted(seqs):
                reordered = True
        assert reordered, "expected lock contention to reorder some commits"

    def test_end_to_end_simulation_with_interleaved_server(self, small_params):
        from repro.core import SerializationGraphTesting
        from repro.runtime import Simulation
        from tests.helpers import committed_transactions, is_serializable_with_server

        sim = Simulation(
            small_params.with_sim(num_clients=2),
            scheme_factory=lambda: SerializationGraphTesting(),
            keep_history=True,
            interleaved_server=True,
        )
        sim.run()
        committed = committed_transactions(sim.clients)
        assert committed
        for txn in committed:
            assert is_serializable_with_server(txn, sim.database, sim.engine.history)

"""Tests for the server transaction engine: workload shape, conflict
bookkeeping, and Claim 1 (edges never point backwards in commit order)."""

import gc
import random
import types

import pytest

from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.graph.sgraph import TxnId
from repro.server.broadcast import ProgramBuilder
from repro.server.database import Database
from repro.server.substrate import build_substrate
from repro.server.transactions import ServerTransaction, TransactionEngine
from repro.server.columnar import ColumnarVersionStore
from tests.server.store_probes import all_on_air


def make_engine(keep_history=False, version_store=False, **overrides):
    defaults = dict(
        broadcast_size=50,
        update_range=30,
        offset=5,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        theta=0.95,
    )
    defaults.update(overrides)
    params = ServerParameters(**defaults)
    db = Database(params.broadcast_size)
    store = ColumnarVersionStore(db, retention=4) if version_store else None
    engine = TransactionEngine(
        params,
        db,
        version_store=store,
        rng=random.Random(99),
        keep_history=keep_history,
    )
    return engine, db, store


class TestServerTransaction:
    def test_writeset_must_be_subset_of_readset(self):
        with pytest.raises(ValueError):
            ServerTransaction(
                tid=TxnId(1, 0),
                readset=frozenset({1}),
                writeset=frozenset({1, 2}),
            )


class TestWorkloadShape:
    def test_transaction_count_per_cycle(self):
        engine, _, _ = make_engine()
        outcome = engine.run_cycle(1)
        assert len(outcome.transactions) == 5
        assert [t.tid.seq for t in outcome.transactions] == list(range(5))
        assert all(t.tid.cycle == 1 for t in outcome.transactions)

    def test_reads_four_times_updates(self):
        engine, _, _ = make_engine()
        outcome = engine.run_cycle(1)
        for txn in outcome.transactions:
            assert len(txn.writeset) == 2  # 10 updates / 5 transactions
            assert len(txn.readset) == 8  # 4x
            assert txn.writeset <= txn.readset

    def test_updates_fall_in_offset_range(self):
        engine, _, _ = make_engine(offset=5)
        updated = set()
        for cycle in range(1, 6):
            updated |= engine.run_cycle(cycle).updated_items
        # Update range is 1..30 rotated by 5: items 6..35.
        assert updated <= set(range(6, 36))

    def test_updated_items_is_union_of_writesets(self):
        engine, _, _ = make_engine()
        outcome = engine.run_cycle(1)
        union = set()
        for txn in outcome.transactions:
            union |= txn.writeset
        assert outcome.updated_items == frozenset(union)


class TestDatabaseEffects:
    def test_writes_visible_next_cycle(self):
        engine, db, _ = make_engine()
        outcome = engine.run_cycle(3)
        for item in outcome.updated_items:
            assert db.current(item).cycle == 4
            assert db.value_at(item, 3).value != db.current(item).value

    def test_version_store_receives_supersedures(self):
        engine, db, store = make_engine(version_store=True)
        outcome = engine.run_cycle(1)
        retained = [item for item in outcome.updated_items if store.on_air(item)]
        assert retained, "updates must park old versions"
        for item in retained:
            [rv] = store.on_air(item)
            assert rv.valid_to == 1  # old value current through cycle 1

    def test_same_cycle_double_write_retains_single_old_version(self):
        engine, db, store = make_engine(version_store=True)
        # Run several cycles; items written twice in one cycle must not
        # park their intermediate (never-broadcast) values.
        for cycle in range(1, 5):
            engine.run_cycle(cycle)
        for item, rvs in all_on_air(store).items():
            values = [rv.version.value for rv in rvs]
            assert len(set(values)) == len(values)
            for rv in rvs:
                # Every retained version was actually current at some
                # cycle: its validity interval is non-empty.
                assert rv.valid_from <= rv.valid_to


class TestConflictBookkeeping:
    def test_first_writers_are_from_this_cycle(self):
        engine, _, _ = make_engine()
        outcome = engine.run_cycle(1)
        assert set(outcome.first_writers) == set(outcome.updated_items)
        for item, tid in outcome.first_writers.items():
            assert tid.cycle == 1

    def test_first_writer_is_earliest_seq(self):
        engine, _, _ = make_engine()
        outcome = engine.run_cycle(1)
        for item, first in outcome.first_writers.items():
            writers = [
                t.tid for t in outcome.transactions if item in t.writeset
            ]
            assert first == min(writers)

    def test_diff_edges_point_to_new_commits(self):
        engine, _, _ = make_engine()
        engine.run_cycle(1)
        outcome = engine.run_cycle(2)
        for u, v in outcome.diff.edges:
            assert v.cycle == 2
            assert u.cycle <= v.cycle

    def test_claim1_no_backward_edges(self):
        """Claim 1: no edges into earlier-cycle subgraphs -- commit order
        and conflict order agree under strict execution."""
        engine, _, _ = make_engine(keep_history=True)
        for cycle in range(1, 8):
            engine.run_cycle(cycle)
        for u, v in engine.graph.edges():
            assert (u.cycle, u.seq) < (v.cycle, v.seq)

    def test_server_graph_is_acyclic(self):
        engine, _, _ = make_engine(keep_history=True)
        for cycle in range(1, 8):
            engine.run_cycle(cycle)
        assert not engine.graph.has_cycle()

    def test_history_is_serializable(self):
        engine, _, _ = make_engine(keep_history=True)
        for cycle in range(1, 6):
            engine.run_cycle(cycle)
        assert engine.history.is_serializable()

    def test_history_graph_edges_superset_of_diffs(self):
        """Every diff edge must be a genuine conflict in the history."""
        engine, _, _ = make_engine(keep_history=True)
        outcomes = [engine.run_cycle(c) for c in range(1, 5)]
        full = engine.history.serialization_graph()
        for outcome in outcomes:
            for u, v in outcome.diff.edges:
                assert full.has_edge(u, v)

    def test_last_writer_of_tracks_current_writer(self):
        engine, db, _ = make_engine()
        for cycle in range(1, 4):
            engine.run_cycle(cycle)
        for item in range(1, 51):
            expected = db.current(item).writer
            assert engine.last_writer_of(item) == expected

    def test_prune_graph_bounds_memory(self):
        engine, _, _ = make_engine(keep_history=True)
        for cycle in range(1, 10):
            engine.run_cycle(cycle)
        before = len(engine.graph)
        removed = engine.prune_graph_before(8)
        assert removed > 0
        assert len(engine.graph) == before - removed
        assert all(
            engine.graph.cycle_of(node) >= 8 for node in engine.graph.nodes()
        )


class TestServingPath:
    """An engine wired by ``build_substrate`` keeps only what its audience
    hears or its oracle replays."""

    def test_inval_audience_tracks_no_conflicts(self):
        server = ServerParameters()
        substrate = build_substrate(
            server, BroadcastRequirements(), random.Random(5)
        )
        engine = substrate.engine
        outcome = None
        for cycle in range(1, 6):
            substrate.builder.build(cycle, outcome)
            outcome = engine.run_cycle(cycle)
        assert outcome.updated_items and outcome.first_writers
        assert outcome.diff is None
        assert engine.graph is None and engine.history is None
        assert not engine._readers_since_write and not engine._last_writer
        assert engine.outcomes == []
        assert engine.prune_graph_before(3) == 0
        # A mis-wired substrate is loud: an SGT builder refuses the outcome
        # instead of airing an empty diff its clients would trust.
        sgt_builder = ProgramBuilder(
            server,
            substrate.item_state,
            requirements=BroadcastRequirements(needs_sgt=True),
        )
        with pytest.raises(ValueError, match="no graph diff"):
            sgt_builder.build(6, outcome)

    @pytest.mark.parametrize(
        "requirements, keep_history, tracked",
        [
            (BroadcastRequirements(needs_old_versions=True), False, False),
            (BroadcastRequirements(needs_sgt=True), False, True),
            (BroadcastRequirements(), True, True),
        ],
        ids=["multiversion", "sgt", "oracle"],
    )
    def test_conflicts_tracked_iff_aired_or_replayed(
        self, requirements, keep_history, tracked
    ):
        engine = build_substrate(
            ServerParameters(),
            requirements,
            random.Random(5),
            keep_history=keep_history,
        ).engine
        outcome = engine.run_cycle(1)
        assert (outcome.diff is not None) == tracked
        assert (engine.graph is not None) == keep_history
        assert len(engine.outcomes) == int(keep_history)

    def test_history_without_conflict_tracking_is_refused(self):
        with pytest.raises(ValueError, match="track_conflicts"):
            TransactionEngine(
                ServerParameters(),
                Database(1000),
                keep_history=True,
                track_conflicts=False,
            )

    def test_long_run_holds_engine_memory_flat(self):
        """Without ``keep_history`` nothing the engine owns grows with
        the cycle count (the database and the stores are not its own)."""
        substrate = build_substrate(
            ServerParameters(), BroadcastRequirements(), random.Random(5)
        )
        engine = substrate.engine
        foreign = {id(substrate.database), id(substrate.item_state)}

        def retained():
            seen, stack = set(foreign), [engine]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                    continue
                seen.add(id(obj))
                if isinstance(obj, types.FunctionType):
                    # A closure owns its cells, not its module's globals.
                    stack.extend(obj.__closure__ or ())
                else:
                    stack.extend(gc.get_referents(obj))
            return len(seen)

        counts = {}
        for cycle in range(1, 301):
            engine.run_cycle(cycle)
            engine.prune_graph_before(cycle - 64)
            if cycle in (100, 300):
                counts[cycle] = retained()
        assert counts[300] == counts[100]

    def test_reader_sets_only_for_writable_items(self):
        """Items outside the update generator's support are never
        written, so a reader set kept for one would only ever grow."""
        engine, _, _ = make_engine(update_range=10)
        support = set(engine._update_gen.support())
        assert support == set(range(6, 16))
        for cycle in range(1, 40):
            engine.run_cycle(cycle)
        assert engine._readers_since_write
        assert set(engine._readers_since_write) <= support

"""Tests for the correctness-oracle module itself."""

import pytest

from repro.core import InvalidationOnly, SerializationGraphTesting
from repro.core.transaction import (
    ReadOnlyTransaction,
    ReadResult,
    TransactionStatus,
)
from repro.graph.history import History
from repro.graph.sgraph import TxnId
from repro.runtime import Simulation
from repro.server.database import Database, TrimmedHistoryError
from repro.verify import (
    check_transaction,
    is_serializable_with_server,
    readset_matches_snapshot,
    snapshot_cycle_of,
    violations,
)
from tests.helpers import committed_transactions


def make_txn(reads, txn_id="R"):
    """reads: list of (item, value, version, read_cycle)."""
    txn = ReadOnlyTransaction(txn_id=txn_id, items=[r[0] for r in reads])
    for item, value, version, cycle in reads:
        txn.record_read(
            ReadResult(item=item, value=value, version=version, read_cycle=cycle)
        )
    return txn


@pytest.fixture
def db():
    database = Database(4)
    # Item 1: updated at cycles 2 and 5; item 2: updated at cycle 3.
    database.write(1, visible_cycle=2, writer=TxnId(1, 0))
    database.write(1, visible_cycle=5, writer=TxnId(4, 0))
    database.write(2, visible_cycle=3, writer=TxnId(2, 0))
    return database


class TestSnapshotOracle:
    def test_consistent_readset_found(self, db):
        # Values as of cycle 3: item1 = 1 (written at 2), item2 = 1.
        txn = make_txn([(1, 1, 2, 3), (2, 1, 3, 3)])
        assert readset_matches_snapshot(txn, db, 3)
        assert snapshot_cycle_of(txn, db) == 3

    def test_inconsistent_readset_rejected(self, db):
        # item1's post-cycle-5 value with item2's pre-cycle-3 value: no
        # single snapshot contains both.
        txn = make_txn([(1, 2, 5, 5), (2, 0, 0, 5)])
        assert snapshot_cycle_of(txn, db) is None

    def test_empty_readset_trivially_consistent(self, db):
        txn = make_txn([])
        assert snapshot_cycle_of(txn, db) == 0

    def test_earliest_matching_cycle_returned(self, db):
        # item1 = 1 holds for cycles 2..4.
        txn = make_txn([(1, 1, 2, 4)])
        assert snapshot_cycle_of(txn, db) == 2


class TestSerializabilityOracle:
    def _history(self):
        h = History()
        # T1 writes item1 (visible 2); T4 writes item1 (visible 5);
        # T2 writes item2 (visible 3).  Serial execution.
        for tid, item in [(TxnId(1, 0), 1), (TxnId(2, 0), 2), (TxnId(4, 0), 1)]:
            h.read(tid, item)
            h.write(tid, item)
            h.commit(tid)
        return h

    def test_consistent_readset_serializable(self, db):
        txn = make_txn([(1, 1, 2, 3), (2, 1, 3, 3)])
        assert is_serializable_with_server(txn, db, self._history())

    def test_inconsistent_readset_not_serializable(self, db):
        # Reading item1's *latest* value but item2's *initial* value puts
        # R both after T4 and before T2 -- but T2 precedes T4 via... no
        # direct conflict between T2 and T4 here, so this mix IS
        # serializable (T1 -> R? ...).  Use the classic anomaly instead:
        # R reads item1's old value (before T4) and item2's new value
        # (after T2); serializable iff no path T4 -> ... -> T2.
        # Build a history with a genuine cycle: T5 reads item1 then
        # writes item2 after T2.
        h = History()
        t1, t2 = TxnId(1, 0), TxnId(2, 0)
        h.read(t1, 1)
        h.write(t1, 1)
        h.commit(t1)
        h.read(t2, 1)  # t2 reads item1 (t1 -> t2 dependency)
        h.write(t2, 2)
        h.commit(t2)
        database = Database(4)
        database.write(1, visible_cycle=2, writer=t1)
        database.write(2, visible_cycle=3, writer=t2)
        # R reads item1's INITIAL value (precedes t1) and item2's value
        # from t2 (follows t2): R -> t1 -> t2 -> R is a cycle.
        txn = make_txn([(1, 0, 0, 3), (2, 1, 3, 3)])
        assert not is_serializable_with_server(txn, database, h)

    def test_never_committed_value_rejected(self, db):
        txn = make_txn([(1, 99, 2, 3)])
        assert not is_serializable_with_server(txn, db, self._history())


class TestCheckAndViolations:
    def test_check_transaction_prefers_snapshot(self, db):
        txn = make_txn([(1, 1, 2, 3)])
        assert check_transaction(txn, db)  # no history needed

    def test_check_transaction_without_history_fails_off_snapshot(self, db):
        txn = make_txn([(1, 2, 5, 5), (2, 0, 0, 5)])
        assert not check_transaction(txn, db, history=None)

    def test_violations_scans_committed_only(self, db):
        class FakeClient:
            def __init__(self, txns):
                self.completed = txns

        good = make_txn([(1, 1, 2, 3)], txn_id="good")
        good.commit(time=1.0, cycle=3)
        bad = make_txn([(1, 2, 5, 5), (2, 0, 0, 5)], txn_id="bad")
        bad.commit(time=2.0, cycle=5)
        ignored = make_txn([(1, 2, 5, 5), (2, 0, 0, 5)], txn_id="aborted")
        from repro.core.transaction import AbortReason

        ignored.abort(AbortReason.INVALIDATED, time=2.0, cycle=5)

        found = violations([FakeClient([good, bad, ignored])], db)
        assert [t.txn_id for t in found] == ["bad"]


class TestTrimmedServerHistory:
    """A run built without ``keep_history`` keeps only the versions the
    air can still ask for; the oracle must refuse to judge it, never
    pass it.  The attempts it is asked about come from a same-seed twin
    that kept history: the clients of the trimmed run keep none."""

    @staticmethod
    def _trimmed_run(params, factory):
        twin = Simulation(params, scheme_factory=factory, keep_history=True)
        twin.run()
        committed = committed_transactions(twin.clients)
        assert committed
        sim = Simulation(params, scheme_factory=factory)
        sim.run()
        assert not sim.database.keep_history
        return sim, twin, committed

    def test_snapshot_path_raises(self, small_params):
        sim, twin, _ = self._trimmed_run(
            small_params, lambda: InvalidationOnly(use_cache=True)
        )
        with pytest.raises(
            TrimmedHistoryError, match="keep_history=True to look further back"
        ):
            violations(twin.clients, sim.database)

    def test_serializability_path_raises(self, small_params):
        sim, twin, committed = self._trimmed_run(
            small_params, lambda: SerializationGraphTesting()
        )
        with pytest.raises(TrimmedHistoryError, match="build horizon"):
            violations(twin.clients, sim.database, History())
        for txn in committed:
            with pytest.raises(TrimmedHistoryError, match="chain_of"):
                is_serializable_with_server(txn, sim.database, History())


def test_default_run_raises_from_completed(small_params):
    """A default run keeps no finished attempts on its clients: the
    oracle cannot even list them, let alone pass them."""
    sim = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
    result = sim.run()
    assert result.total_attempts > 0
    with pytest.raises(TrimmedHistoryError, match="read completed"):
        violations(sim.clients, sim.database, sim.engine.history)

"""Tests for old-version retention (the multiversion broadcast store)."""

import pytest

from repro.graph.sgraph import TxnId
from repro.server.database import Database
from repro.server.columnar import ColumnarVersionStore
from tests.server.store_probes import (
    all_on_air,
    best_version_at,
    total_retained,
)


@pytest.fixture
def db():
    return Database(5)


def make_store(db, retention=3):
    return ColumnarVersionStore(db, retention=retention)


def test_negative_retention_rejected(db):
    with pytest.raises(ValueError):
        ColumnarVersionStore(db, retention=-1)


def test_supersedure_records_validity_interval(db):
    store = make_store(db)
    old = db.current(1)
    db.write(1, visible_cycle=4, writer=TxnId(3, 0))
    store.record_supersedure(old, superseded_at=4)
    [rv] = store.on_air(1)
    assert rv.valid_from == 0
    assert rv.valid_to == 3
    assert rv.covers(0) and rv.covers(3)
    assert not rv.covers(4)


def test_zero_retention_keeps_nothing(db):
    store = make_store(db, retention=0)
    old = db.current(1)
    db.write(1, visible_cycle=2, writer=TxnId(1, 0))
    store.record_supersedure(old, superseded_at=2)
    assert store.on_air(1) == []
    assert total_retained(store) == 0


def test_eviction_after_retention_cycles(db):
    store = make_store(db, retention=3)
    old = db.current(1)
    db.write(1, visible_cycle=2, writer=TxnId(1, 0))
    store.record_supersedure(old, superseded_at=2)
    # On air during cycles 2, 3, 4; discarded at 5.
    assert store.evict_expired(4) == 0
    assert store.on_air(1)
    assert store.evict_expired(5) == 1
    assert store.on_air(1) == []


def test_best_version_at_prefers_current(db):
    store = make_store(db)
    assert best_version_at(store, 1, 0).value == 0
    db.write(1, visible_cycle=2, writer=TxnId(1, 0))
    assert best_version_at(store, 1, 5).value == 1


def test_best_version_at_falls_back_to_retained(db):
    store = make_store(db)
    old = db.current(1)
    db.write(1, visible_cycle=3, writer=TxnId(2, 0))
    store.record_supersedure(old, superseded_at=3)
    # Need the value current at cycle 2: the retained version 0.
    assert best_version_at(store, 1, 2).value == 0


def test_best_version_at_none_when_discarded(db):
    store = make_store(db, retention=1)
    old = db.current(1)
    db.write(1, visible_cycle=3, writer=TxnId(2, 0))
    store.record_supersedure(old, superseded_at=3)
    store.evict_expired(4)
    assert best_version_at(store, 1, 2) is None


def test_multiple_versions_chain(db):
    """Theorem 2's guarantee: with retention S, the value current at the
    first-read cycle stays findable for S cycles after its supersedure."""
    store = make_store(db, retention=4)
    for k in (2, 4, 6):
        old = db.current(1)
        db.write(1, visible_cycle=k, writer=TxnId(k - 1, 0))
        store.record_supersedure(old, superseded_at=k)
        store.evict_expired(k)
    # At cycle 6: value-0 (superseded at 2) is already evicted at 6.
    assert best_version_at(store, 1, 1) is None
    # value-1 (current cycles 2..3, superseded at 4): on air until cycle 7.
    assert best_version_at(store, 1, 3).value == 1
    # value-2 (current cycles 4..5, superseded at 6): on air.
    assert best_version_at(store, 1, 5).value == 2
    assert best_version_at(store, 1, 6).value == 3


def test_all_on_air_returns_copies(db):
    store = make_store(db)
    old = db.current(2)
    db.write(2, visible_cycle=2, writer=TxnId(1, 0))
    store.record_supersedure(old, superseded_at=2)
    snapshot = all_on_air(store)
    snapshot[2].clear()
    assert store.on_air(2)


def test_total_retained_counts_everything(db):
    store = make_store(db, retention=10)
    for item in (1, 2):
        for k in (2, 3):
            old = db.current(item)
            db.write(item, visible_cycle=k, writer=TxnId(k - 1, item))
            store.record_supersedure(old, superseded_at=k)
    assert total_retained(store) == 4


class TestDirtyTracking:
    """The incremental program builder's change feed: an item is dirty
    whenever its on-air old-version set changed -- supersedure adds a
    version, retention eviction drops one.  Evictions are the subtle
    half: they flip ``has_old_versions`` without the item appearing in
    any cycle outcome, so the builder cannot infer them from updates."""

    def test_supersedure_marks_item_dirty(self, db):
        store = make_store(db)
        old = db.current(1)
        db.write(1, visible_cycle=2, writer=TxnId(1, 0))
        store.record_supersedure(old, superseded_at=2)
        assert store.consume_dirty() == {1}

    def test_eviction_marks_item_dirty(self, db):
        store = make_store(db, retention=2)
        old = db.current(3)
        db.write(3, visible_cycle=2, writer=TxnId(1, 0))
        store.record_supersedure(old, superseded_at=2)
        store.consume_dirty()  # drain the supersedure
        assert store.evict_expired(3) == 0
        assert store.consume_dirty() == set()
        assert store.evict_expired(4) == 1
        assert store.consume_dirty() == {3}

    def test_consume_drains(self, db):
        store = make_store(db)
        old = db.current(2)
        db.write(2, visible_cycle=2, writer=TxnId(1, 0))
        store.record_supersedure(old, superseded_at=2)
        assert store.consume_dirty() == {2}
        assert store.consume_dirty() == set()

    def test_zero_retention_never_dirty(self, db):
        store = make_store(db, retention=0)
        old = db.current(1)
        db.write(1, visible_cycle=2, writer=TxnId(1, 0))
        store.record_supersedure(old, superseded_at=2)
        assert store.consume_dirty() == set()

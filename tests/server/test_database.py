"""Tests for the versioned database and its snapshot semantics."""

import random

import pytest

from repro.graph.sgraph import TxnId
from repro.server.database import Database, TrimmedHistoryError


@pytest.fixture
def db():
    return Database(10)


def test_initial_state(db):
    assert db.size == 10
    assert list(db.items()) == list(range(1, 11))
    for item in db.items():
        version = db.current(item)
        assert version.cycle == 0
        assert version.value == 0
        assert version.writer is None


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        Database(0)


def test_write_appends_version(db):
    writer = TxnId(1, 0)
    version = db.write(3, visible_cycle=2, writer=writer)
    assert version.value == 1
    assert version.cycle == 2
    assert db.current(3) is version
    assert db.current(3).writer == writer


def test_write_monotonicity_enforced(db):
    db.write(3, visible_cycle=5, writer=TxnId(4, 0))
    with pytest.raises(ValueError):
        db.write(3, visible_cycle=4, writer=TxnId(3, 0))


def test_same_cycle_overwrites_allowed(db):
    db.write(3, visible_cycle=2, writer=TxnId(1, 0))
    db.write(3, visible_cycle=2, writer=TxnId(1, 1))
    chain = db.chain_of(3)
    assert [v.value for v in chain] == [0, 1, 2]
    assert db.current(3).writer == TxnId(1, 1)


def test_value_at_returns_visible_version(db):
    db.write(3, visible_cycle=2, writer=TxnId(1, 0))
    db.write(3, visible_cycle=5, writer=TxnId(4, 0))
    assert db.value_at(3, 1).value == 0
    assert db.value_at(3, 2).value == 1
    assert db.value_at(3, 4).value == 1
    assert db.value_at(3, 5).value == 2
    assert db.value_at(3, 99).value == 2


def test_snapshot_is_consistent_cut(db):
    db.write(1, visible_cycle=2, writer=TxnId(1, 0))
    db.write(2, visible_cycle=3, writer=TxnId(2, 0))
    snap = db.snapshot(2)
    assert snap[1].value == 1
    assert snap[2].value == 0
    assert len(snap) == 10


def test_unknown_item_rejected(db):
    with pytest.raises(KeyError):
        db.current(11)
    with pytest.raises(KeyError):
        db.write(0, visible_cycle=1, writer=TxnId(0, 0))


def test_was_updated_between(db):
    db.write(4, visible_cycle=3, writer=TxnId(2, 0))
    assert db.was_updated_between(4, 3, 3)
    assert db.was_updated_between(4, 1, 5)
    assert not db.was_updated_between(4, 4, 9)
    assert not db.was_updated_between(5, 0, 99)


def test_chain_of_is_a_copy(db):
    chain = db.chain_of(1)
    chain.append("garbage")
    assert len(db.chain_of(1)) == 1


# -- chains trimmed to the build horizon (keep_history=False) --------------


@pytest.fixture
def trimmed():
    return Database(10, keep_history=False)


def _random_writes(seed, stamps=30, size=10):
    """A write sequence the engine could make: non-decreasing stamps,
    several writes per stamp, some stamps skipped."""
    rng = random.Random(seed)
    writes = []
    stamp = 0
    for seq in range(stamps * 4):
        stamp += rng.choice((0, 0, 1, 1, 2))
        writes.append((rng.randint(1, size), stamp, TxnId(stamp, seq)))
    return writes


def test_trimmed_database_keeps_history_off(trimmed, db):
    assert db.keep_history and not trimmed.keep_history
    assert trimmed.horizon == 0 and trimmed.versions_held == 10


def test_trimmed_value_at_at_or_above_horizon_answers_as_full_chain():
    for seed in range(8):
        full, cut = Database(10), Database(10, keep_history=False)
        for item, stamp, writer in _random_writes(seed):
            assert full.write(item, stamp, writer) == cut.write(
                item, stamp, writer
            )
            assert cut.horizon == max(stamp - 1, 0)
            for probe in full.items():
                assert cut.current(probe) == full.current(probe)
                for cycle in range(cut.horizon, stamp + 2):
                    assert cut.value_at(probe, cycle) == full.value_at(
                        probe, cycle
                    )


def test_trimmed_chains_hold_one_version_per_item_plus_the_newest_stamp():
    for seed in range(8):
        cut = Database(10, keep_history=False)
        newest = at_newest = 0
        for item, stamp, writer in _random_writes(seed):
            at_newest = at_newest + 1 if stamp == newest else 1
            newest = stamp
            cut.write(item, stamp, writer)
            assert cut.versions_held == 10 + at_newest


def test_trimmed_value_at_below_horizon_raises(trimmed):
    trimmed.write(3, visible_cycle=2, writer=TxnId(1, 0))
    trimmed.write(3, visible_cycle=5, writer=TxnId(4, 0))
    trimmed.write(4, visible_cycle=7, writer=TxnId(6, 0))
    assert trimmed.horizon == 6
    with pytest.raises(TrimmedHistoryError, match=r"horizon \(cycle 6\)") as err:
        trimmed.value_at(3, 5)
    assert "keep_history=True" in str(err.value)
    # Still a ValueError, and a negative cycle is still "no version".
    assert isinstance(err.value, ValueError)
    with pytest.raises(ValueError, match="no version visible"):
        trimmed.value_at(3, -1)
    assert trimmed.value_at(3, 6).value == 2


@pytest.mark.parametrize(
    "ask",
    [
        lambda d: d.chain_of(1),
        lambda d: d.snapshot(5),
        lambda d: d.was_updated_between(1, 0, 9),
    ],
    ids=["chain_of", "snapshot", "was_updated_between"],
)
def test_trimmed_history_questions_raise(trimmed, ask):
    trimmed.write(1, visible_cycle=2, writer=TxnId(1, 0))
    with pytest.raises(TrimmedHistoryError, match="keep_history=True"):
        ask(trimmed)

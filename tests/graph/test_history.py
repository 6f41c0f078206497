"""Tests for recorded histories and the serializability oracle,
including the paper's Claims 2 and 3 (edge-reduction equivalences)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.history import History, OpType
from repro.graph.sgraph import SerializationGraph


class TestRecording:
    def test_reads_writes_and_sets(self):
        h = History()
        h.read("t1", 1)
        h.write("t1", 1)
        h.read("t1", 2)
        h.commit("t1")
        assert h.readset("t1") == {1, 2}
        assert h.writeset("t1") == {1}

    def test_terminated_transaction_rejects_ops(self):
        h = History()
        h.read("t1", 1)
        h.commit("t1")
        with pytest.raises(ValueError):
            h.read("t1", 2)

    def test_commit_after_abort_rejected(self):
        h = History()
        h.abort("t1")
        with pytest.raises(ValueError):
            h.commit("t1")
        with pytest.raises(ValueError):
            History_commit_then_abort()


def History_commit_then_abort():
    h = History()
    h.commit("t1")
    h.abort("t1")


def _writers_of(h, item):
    """Committed transactions that wrote ``item``, in history order."""
    committed = h.committed
    return list(
        dict.fromkeys(
            op.txn
            for op in h.operations
            if op.op is OpType.WRITE and op.item == item and op.txn in committed
        )
    )


class TestSerializationGraphConstruction:
    def test_wr_dependency_edge(self):
        h = History()
        h.write("t1", 5)
        h.read("t2", 5)
        h.commit("t1")
        h.commit("t2")
        g = h.serialization_graph()
        assert g.has_edge("t1", "t2")
        assert not g.has_edge("t2", "t1")

    def test_rw_precedence_edge(self):
        h = History()
        h.read("t1", 5)
        h.write("t2", 5)
        h.commit("t1")
        h.commit("t2")
        g = h.serialization_graph()
        assert g.has_edge("t1", "t2")

    def test_ww_edge(self):
        h = History()
        h.write("t1", 5)
        h.write("t2", 5)
        h.commit("t1")
        h.commit("t2")
        assert h.serialization_graph().has_edge("t1", "t2")

    def test_reads_do_not_conflict(self):
        h = History()
        h.read("t1", 5)
        h.read("t2", 5)
        h.commit("t1")
        h.commit("t2")
        assert h.serialization_graph().edge_count == 0

    def test_uncommitted_excluded_unless_included(self):
        h = History()
        h.write("t1", 5)
        h.read("R", 5)
        h.commit("t1")
        assert "R" not in h.serialization_graph()
        assert h.serialization_graph(include=["R"]).has_edge("t1", "R")


class TestSerializability:
    def test_serial_history_is_serializable(self):
        h = History()
        h.read("t1", 1)
        h.write("t1", 1)
        h.commit("t1")
        h.read("t2", 1)
        h.write("t2", 2)
        h.commit("t2")
        assert h.is_serializable()

    def test_classic_nonserializable_interleaving(self):
        # t1 reads x then writes y; t2 reads y then writes x -- the classic
        # rw/rw cross: t1 -> t2 (x) and t2 -> t1 (y).
        h = History()
        h.read("t1", 1)
        h.read("t2", 2)
        h.write("t2", 1)
        h.write("t1", 2)
        h.commit("t1")
        h.commit("t2")
        assert not h.is_serializable()

    def test_read_only_transaction_between_writers(self):
        # R reads x from t1, then t2 overwrites x and writes y, then R
        # reads the *new* y: R -> t2 (rw on x) and t2 -> R (wr on y) -- a
        # cycle; the mixed readset is exactly the paper's anomaly.
        h = History()
        h.write("t1", 1)
        h.commit("t1")
        h.read("R", 1)
        h.write("t2", 1)
        h.write("t2", 2)
        h.commit("t2")
        h.read("R", 2)
        assert not h.is_serializable(include=["R"])

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_property_serial_execution_always_serializable(self, seed):
        """Transactions executed strictly one after another must always
        yield an acyclic graph."""
        rng = random.Random(seed)
        h = History()
        for t in range(6):
            name = f"t{t}"
            for _ in range(rng.randint(1, 5)):
                item = rng.randint(1, 6)
                h.read(name, item)
                if rng.random() < 0.5:
                    h.write(name, item)
            h.commit(name)
        assert h.is_serializable()


class TestClaims2And3:
    """The paper's edge-reduction claims: one edge to the first writer
    (precedence) / from the last writer (dependency) preserves cycles."""

    def _multi_writer_history(self):
        """t1, t2, t3 all write item 7, in that order; all committed."""
        h = History()
        for t in ("t1", "t2", "t3"):
            h.read(t, 7)
            h.write(t, 7)
            h.commit(t)
        return h

    def test_claim2_first_writer_edge_preserves_cycles(self):
        """SG_a: R -> every writer of x.  SG_f: R -> first writer only.
        Claim 2: SG_a cyclic <=> SG_f cyclic (given ww chain edges)."""
        h = self._multi_writer_history()
        writers = _writers_of(h, 7)

        # Build both graphs on top of the server graph; close a cycle by
        # letting R read from the *last* writer (dependency t3 -> R).
        full = h.serialization_graph(include=["R"])
        full.add_edge("t3", "R")
        reduced = h.serialization_graph(include=["R"])
        reduced.add_edge("t3", "R")

        for writer in writers:
            full.add_edge("R", writer)
        reduced.add_edge("R", writers[0])  # first writer only

        assert full.has_cycle() == reduced.has_cycle() == True  # noqa: E712

    def test_claim2_acyclic_case_agrees(self):
        h = self._multi_writer_history()
        writers = _writers_of(h, 7)
        full = h.serialization_graph(include=["R"])
        reduced = h.serialization_graph(include=["R"])
        for writer in writers:
            full.add_edge("R", writer)
        reduced.add_edge("R", writers[0])
        assert full.has_cycle() == reduced.has_cycle() == False  # noqa: E712

    def test_claim3_last_writer_edge_preserves_cycles(self):
        """SG_a: every writer of y -> R.  SG_l: last writer -> R only."""
        h = self._multi_writer_history()
        writers = _writers_of(h, 7)

        full = h.serialization_graph(include=["R"])
        reduced = h.serialization_graph(include=["R"])
        # Precedence edge out of R to close potential cycles.
        full.add_edge("R", writers[0])
        reduced.add_edge("R", writers[0])

        for writer in writers:
            full.add_edge(writer, "R")
        reduced.add_edge(writers[-1], "R")  # last writer only

        assert full.has_cycle() == reduced.has_cycle() == True  # noqa: E712

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_property_claims_on_random_serial_histories(self, seed):
        """Random serial history + R with random reads/invalidations: the
        reduced-edge graph is cyclic iff the all-edges graph is."""
        rng = random.Random(seed)
        h = History()
        items = range(1, 5)
        for t in range(5):
            name = f"t{t}"
            for item in rng.sample(list(items), rng.randint(1, 3)):
                h.read(name, item)
                h.write(name, item)
            h.commit(name)

        read_items = rng.sample(list(items), 2)
        full = h.serialization_graph(include=["R"])
        reduced = h.serialization_graph(include=["R"])
        for item in read_items:
            writers = _writers_of(h, item)
            if not writers:
                continue
            # R read the version of some random writer w; in the full
            # graph every later writer precedes R's serialization, in the
            # reduced graph only per the claims.
            w_index = rng.randrange(len(writers))
            full.add_edge(writers[w_index], "R")
            reduced.add_edge(writers[w_index], "R")
            later = writers[w_index + 1 :]
            for overwriter in later:
                full.add_edge("R", overwriter)
            if later:
                reduced.add_edge("R", later[0])  # first overwriter only
        assert full.has_cycle() == reduced.has_cycle()

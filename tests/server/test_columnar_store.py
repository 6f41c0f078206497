"""Property tests for the columnar item-state store (DESIGN §14).

Hypothesis drives both stores through arbitrary interleavings of writes,
supersedures and (possibly non-monotone) evictions and demands
state-for-state equality with the dict-backed reference; separate
properties pin the dense-id remapping bijection and the monotonicity of
the has-old-versions bits under eviction.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database
from tests.server.reference_versions import VersionStore

DB_SIZE = 12


#: One step of the driven workload: a cycle commits some writes (each
#: item at most once per cycle, like the engine's per-cycle writesets)
#: and then the server evicts at that cycle.
steps = st.lists(
    st.tuples(
        st.lists(
            st.integers(min_value=1, max_value=DB_SIZE),
            max_size=4,
            unique=True,
        ),
        st.booleans(),  # evict at this cycle?
    ),
    min_size=1,
    max_size=30,
)


def _commit(store, database, writes, visible):
    """One cycle's writes the way the engine commits them: write, then
    hand the store the version that stopped being current."""
    for item in sorted(writes):
        previous = database.current(item)
        database.write(item, visible_cycle=visible, writer=None)
        if previous.cycle < visible:
            store.record_supersedure(previous, superseded_at=visible)


def _drive(store, database, script):
    """Replay ``script`` through one store the way the engine would:
    write -> record_supersedure(previous) -> evict at cycle end."""
    observations = []
    for cycle, (writes, evict) in enumerate(script, start=1):
        visible = cycle + 1
        _commit(store, database, writes, visible)
        evicted = store.evict_expired(visible) if evict else 0
        observations.append(
            (
                evicted,
                store.total_retained,
                frozenset(store.consume_dirty()),
                {
                    item: tuple(store.on_air(item))
                    for item in range(1, DB_SIZE + 1)
                    if store.on_air(item)
                },
                {
                    item: store.best_version_at(item, max(1, visible - 2))
                    for item in range(1, DB_SIZE + 1)
                },
                # Figure 2(b) order: kept by cohort, or re-sorted.
                store.overflow_records(),
            )
        )
    return observations


class TestStateForStateEquality:
    @settings(max_examples=60, deadline=None)
    @given(script=steps, retention=st.integers(min_value=0, max_value=5))
    def test_arbitrary_sequences_match_reference(self, script, retention):
        runs = []
        for make in (
            lambda db: ColumnarVersionStore(db, retention=retention),
            lambda db: VersionStore(db, retention=retention),
        ):
            database = Database(DB_SIZE)
            runs.append(_drive(make(database), database, script))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(script=steps)
    def test_all_on_air_equal_as_mappings(self, script):
        stores = []
        for columnar in (True, False):
            database = Database(DB_SIZE)
            store = (
                ColumnarVersionStore(database, retention=3)
                if columnar
                else VersionStore(database, retention=3)
            )
            _drive(store, database, script)
            stores.append(store)
        assert stores[0].all_on_air() == stores[1].all_on_air()

    @settings(max_examples=40, deadline=None)
    @given(
        script=steps,
        evictions=st.lists(
            st.integers(min_value=0, max_value=40), max_size=8
        ),
    )
    def test_non_monotone_evictions_converge(self, script, evictions):
        """The seam contract: arbitrary (even decreasing) evict cycles
        must leave both stores with the same retained set."""
        stores = []
        for columnar in (True, False):
            database = Database(DB_SIZE)
            store = (
                ColumnarVersionStore(database, retention=2)
                if columnar
                else VersionStore(database, retention=2)
            )
            _drive(store, database, script)
            for cycle in evictions:
                store.evict_expired(cycle)
            stores.append(store)
        assert stores[0].all_on_air() == stores[1].all_on_air()
        assert stores[0].total_retained == stores[1].total_retained
        assert stores[0].consume_dirty() == stores[1].consume_dirty()


def _by_cohort(store):
    """The directory's record objects grouped by supersedure cycle."""
    cohorts = {}
    for record in store.overflow_records():
        cohorts.setdefault(record.valid_to + 1, []).append(record)
    return cohorts


def _same_objects(before, after):
    return len(before) == len(after) and all(
        old is new for old, new in zip(before, after)
    )


class TestCohortRecordsAreKept:
    """A cohort's directory records are built once: only a supersedure
    into that cohort or its eviction may replace the objects."""

    def test_other_cohorts_supersedure_and_eviction_leave_records_alone(self):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=3)

        def commit(cycle, items):
            _commit(store, database, items, cycle + 1)

        commit(1, [1, 2])
        commit(2, [3, 4])
        first = _by_cohort(store)
        assert sorted(first) == [2, 3]

        commit(3, [5])  # a supersedure into another cohort
        second = _by_cohort(store)
        assert sorted(second) == [2, 3, 4]
        assert _same_objects(first[2], second[2])
        assert _same_objects(first[3], second[3])

        assert store.evict_expired(5) == 2  # cohort 2 expires
        third = _by_cohort(store)
        assert sorted(third) == [3, 4]
        assert _same_objects(second[3], third[3])
        assert _same_objects(second[4], third[4])

        commit(3, [6])  # appending to cohort 4 rebuilds that cohort only
        fourth = _by_cohort(store)
        assert [r.item for r in fourth[4]] == [5, 6]
        assert _same_objects(third[3], fourth[3])

    @settings(max_examples=60, deadline=None)
    @given(script=steps, retention=st.integers(min_value=1, max_value=5))
    def test_untouched_cohorts_keep_their_objects(self, script, retention):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=retention)
        before = {}
        for cycle, (writes, evict) in enumerate(script, start=1):
            visible = cycle + 1
            _commit(store, database, writes, visible)
            if evict:
                store.evict_expired(visible)
            after = _by_cohort(store)
            for w in before.keys() & after.keys():
                if w != visible:
                    assert _same_objects(before[w], after[w])
            before = after


class TestDenseIdBijection:
    @settings(max_examples=80, deadline=None)
    @given(
        items=st.sets(
            st.integers(min_value=1, max_value=200), min_size=1, max_size=50
        )
    )
    def test_index_and_item_at_are_inverse(self, items):
        database = Database(200)
        store = ColumnarVersionStore(database, retention=1, items=items)
        indices = [store.dense_index(item) for item in sorted(items)]
        # A bijection onto 0..n-1, order-preserving over sorted items.
        assert indices == list(range(len(items)))
        for item in items:
            assert store.item_at(store.dense_index(item)) == item
        for index in range(len(items)):
            assert store.dense_index(store.item_at(index)) == index

    @settings(max_examples=40, deadline=None)
    @given(
        items=st.sets(
            st.integers(min_value=1, max_value=200), min_size=1, max_size=50
        ),
        probe=st.integers(min_value=1, max_value=200),
    )
    def test_unowned_items_rejected(self, items, probe):
        database = Database(200)
        store = ColumnarVersionStore(database, retention=1, items=items)
        if probe in items:
            assert store.owns(probe)
        else:
            assert not store.owns(probe)
            try:
                store.dense_index(probe)
            except KeyError:
                pass
            else:
                raise AssertionError("unowned item resolved to a dense id")

    def test_full_universe_is_offset_arithmetic(self):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=1)
        assert [store.dense_index(i) for i in range(1, DB_SIZE + 1)] == list(
            range(DB_SIZE)
        )


class TestHasOldMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(script=steps)
    def test_eviction_only_clears_bits(self, script):
        """Between two evictions with no supersedure in between, the
        has-old bit of every item may only go 1 -> 0, never 0 -> 1."""
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=2)
        last_cycle = _replay_writes(store, database, script)
        before = [store.has_old(item) for item in range(1, DB_SIZE + 1)]
        for cycle in range(last_cycle, last_cycle + 6):
            store.evict_expired(cycle)
            after = [store.has_old(item) for item in range(1, DB_SIZE + 1)]
            assert all(not a or b for a, b in zip(after, before))
            before = after
        # Far enough past the horizon everything is gone.
        store.evict_expired(last_cycle + 100)
        assert store.total_retained == 0
        assert not any(store.has_old(item) for item in range(1, DB_SIZE + 1))

    @settings(max_examples=60, deadline=None)
    @given(script=steps)
    def test_bit_tracks_on_air_exactly(self, script):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=3)
        _replay_writes(store, database, script)
        for item in range(1, DB_SIZE + 1):
            assert store.has_old(item) == bool(store.on_air(item))


def _replay_writes(store, database, script):
    """The write/supersede part of :func:`_drive`, returning the cycle
    after the last one (for eviction probing)."""
    cycle = 1
    for cycle, (writes, evict) in enumerate(script, start=1):
        visible = cycle + 1
        _commit(store, database, writes, visible)
        if evict:
            store.evict_expired(visible)
    return cycle + 1


class TestObserverColumns:
    def test_direct_database_writes_reach_the_columns(self):
        """Tests (and the interleaved engine) write the database
        directly; the observer hook must keep the columns fresh."""
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=2)
        database.write(3, visible_cycle=5, writer=None)
        record = store.item_record(3, cycle=5, needs_old=False)
        assert (record.value, record.version) == (1, 5)

    def test_future_writes_fall_back_to_chain_search(self):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(database, retention=2)
        database.write(3, visible_cycle=9, writer=None)
        # Asking for the cycle-4 snapshot must not see the cycle-9 value.
        record = store.item_record(3, cycle=4, needs_old=False)
        assert (record.value, record.version) == (0, 0)

    def test_shard_slices_ignore_foreign_writes(self):
        database = Database(DB_SIZE)
        store = ColumnarVersionStore(
            database, retention=2, items=(2, 4, 6)
        )
        database.write(3, visible_cycle=5, writer=None)  # not owned
        database.write(4, visible_cycle=5, writer=None)
        assert store.item_record(4, 5, False).value == 1
        assert not store.owns(3)

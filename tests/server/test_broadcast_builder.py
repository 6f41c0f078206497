"""Tests for the per-cycle broadcast program builder."""

import random

import pytest

from repro.broadcast.program import MultiversionOrganization
from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.server.broadcast import ProgramBuilder
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database
from repro.server.transactions import TransactionEngine


def make_world(requirements=None, retention=4, **overrides):
    defaults = dict(
        broadcast_size=50,
        update_range=30,
        offset=0,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        items_per_bucket=5,
    )
    defaults.update(overrides)
    params = ServerParameters(**defaults)
    db = Database(params.broadcast_size)
    requirements = requirements or BroadcastRequirements()
    store = _store(db, requirements, retention)
    engine = TransactionEngine(
        params, db, version_store=store, rng=random.Random(3)
    )
    builder = ProgramBuilder(params, store, requirements=requirements)
    return params, db, engine, builder


def _store(db, requirements, retention):
    """The item store the way a server builds it: it keeps old versions
    only when the requirements air them."""
    return ColumnarVersionStore(
        db, retention=retention if requirements.needs_old_versions else 0
    )


class TestFirstCycle:
    def test_empty_report_and_layout(self):
        params, _, _, builder = make_world()
        program = builder.build(1, None)
        assert program.cycle == 1
        assert program.control.invalidation.updated_items == frozenset()
        assert program.control_slots == 1
        assert len(program.data_buckets) == 10  # 50 items / 5 per bucket
        assert program.total_slots == 11
        assert sorted(program.items) == list(range(1, 51))

    def test_records_carry_initial_versions(self):
        _, _, _, builder = make_world()
        program = builder.build(1, None)
        for item in range(1, 51):
            record = program.record_of(item)
            assert record.version == 0
            assert record.writer is None


class TestInvalidationReports:
    def test_report_reflects_previous_cycle_updates(self):
        _, _, engine, builder = make_world()
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        assert program.control.invalidation.updated_items == outcome.updated_items
        assert program.control.invalidation.cycle == 2

    def test_bucket_level_report_derived(self):
        params, _, engine, builder = make_world()
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        expected = frozenset(
            (item - 1) // params.items_per_bucket
            for item in outcome.updated_items
        )
        assert program.control.invalidation.updated_buckets == expected

    def test_data_values_match_snapshot(self):
        _, db, engine, builder = make_world()
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        for item in range(1, 51):
            record = program.record_of(item)
            expected = db.value_at(item, 2)
            assert record.value == expected.value
            assert record.version == expected.cycle


class TestSgtRequirements:
    def test_graph_diff_and_first_writers_on_air(self):
        reqs = BroadcastRequirements(needs_sgt=True)
        _, _, engine, builder = make_world(requirements=reqs)
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        assert program.control.graph_diff == outcome.diff
        assert dict(program.control.invalidation.first_writers) == dict(
            outcome.first_writers
        )

    def test_without_sgt_no_diff_or_first_writers(self):
        _, _, engine, builder = make_world()
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        assert program.control.graph_diff is None
        assert not program.control.invalidation.first_writers

    def test_sgt_control_is_larger(self):
        _, _, engine_a, builder_a = make_world()
        reqs = BroadcastRequirements(needs_sgt=True)
        _, _, engine_b, builder_b = make_world(requirements=reqs)
        builder_a.build(1, None)
        builder_b.build(1, None)
        plain = builder_a.build(2, engine_a.run_cycle(1))
        sgt = builder_b.build(2, engine_b.run_cycle(1))
        assert sgt.control.size_units > plain.control.size_units


class TestOverflowOrganization:
    def test_overflow_buckets_at_end(self):
        reqs = BroadcastRequirements(needs_old_versions=True, organization="overflow")
        _, _, engine, builder = make_world(requirements=reqs)
        builder.build(1, None)
        program = None
        for cycle in range(1, 4):
            outcome = engine.run_cycle(cycle)
            program = builder.build(cycle + 1, outcome)
        assert program.organization is MultiversionOrganization.OVERFLOW
        assert program.overflow_buckets
        # Old version slots come after every data slot.
        data_end = program.control_slots + len(program.data_buckets)
        for item in program.items:
            hit = program.old_version_at(item, 0)
            if hit is not None:
                _, slot = hit
                assert slot >= data_end

    def test_item_positions_fixed_across_cycles(self):
        reqs = BroadcastRequirements(needs_old_versions=True, organization="overflow")
        _, _, engine, builder = make_world(requirements=reqs)
        first = builder.build(1, None)
        positions = {item: first.slots_of(item) for item in first.items}
        outcome = engine.run_cycle(1)
        second = builder.build(2, outcome)
        if second.control_slots == first.control_slots:
            for item, slots in positions.items():
                assert second.slots_of(item) == slots

    def test_old_records_expose_validity(self):
        reqs = BroadcastRequirements(needs_old_versions=True, organization="overflow")
        _, db, engine, builder = make_world(requirements=reqs)
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        for item in outcome.updated_items:
            hit = program.old_version_at(item, 1)
            assert hit is not None
            old, _ = hit
            assert old.valid_to == 1
            assert old.value == db.value_at(item, 1).value


class TestClusteredOrganization:
    def test_clustered_versions_ride_with_items(self):
        reqs = BroadcastRequirements(
            needs_old_versions=True, organization="clustered"
        )
        _, _, engine, builder = make_world(requirements=reqs)
        builder.build(1, None)
        outcome = engine.run_cycle(1)
        program = builder.build(2, outcome)
        assert program.organization is MultiversionOrganization.CLUSTERED
        assert not program.overflow_buckets
        assert program.index_slots > 0
        for item in outcome.updated_items:
            hit = program.old_version_at(item, 1)
            assert hit is not None
            old, slot = hit
            # Clustered: the old version rides in the data segment.
            assert slot < program.control_slots + program.index_slots + len(
                program.data_buckets
            )

    def test_clustered_costs_more_slots_than_overflow(self):
        results = {}
        for organization in ("clustered", "overflow"):
            reqs = BroadcastRequirements(
                needs_old_versions=True, organization=organization
            )
            _, _, engine, builder = make_world(requirements=reqs)
            builder.build(1, None)
            program = None
            for cycle in range(1, 4):
                program = builder.build(cycle + 1, engine.run_cycle(cycle))
            results[organization] = program.total_slots
        assert results["clustered"] > results["overflow"]


class TestWindowReports:
    def test_window_retransmits_recent_reports(self):
        reqs = BroadcastRequirements(report_window=3)
        _, _, engine, builder = make_world(requirements=reqs)
        builder.build(1, None)
        program = None
        for cycle in range(1, 6):
            program = builder.build(cycle + 1, engine.run_cycle(cycle))
        window_cycles = [report.cycle for report in program.control.window]
        assert window_cycles == [3, 4, 5]
        assert program.control.missed_window_ok(last_heard=3)
        assert not program.control.missed_window_ok(last_heard=1)


def test_old_versions_requested_without_store_rejected():
    params = ServerParameters(broadcast_size=10, update_range=10, updates_per_cycle=2)
    with pytest.raises(TypeError):
        ProgramBuilder(
            params, requirements=BroadcastRequirements(needs_old_versions=True)
        )


def fingerprint(program):
    """Everything a client can observe about a program's physical layout."""
    return (
        program.cycle,
        program.control_slots,
        program.index_slots,
        program.total_slots,
        tuple(
            (b.index, b.records, b.old_records) for b in program.data_buckets
        ),
        tuple(
            (b.index, b.records, b.old_records) for b in program.overflow_buckets
        ),
    )


def build_run(incremental, requirements=None, cycles=12, retention=2, seed=7):
    """One deterministic world, returning every cycle's program."""
    params = ServerParameters(
        broadcast_size=50,
        update_range=30,
        offset=0,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        items_per_bucket=5,
    )
    db = Database(params.broadcast_size)
    requirements = requirements or BroadcastRequirements()
    store = _store(db, requirements, retention)
    engine = TransactionEngine(
        params, db, version_store=store, rng=random.Random(seed)
    )
    builder = ProgramBuilder(
        params, store, requirements=requirements, incremental=incremental
    )
    programs = []
    outcome = None
    for cycle in range(1, cycles + 1):
        programs.append(builder.build(cycle, outcome))
        outcome = engine.run_cycle(cycle)
    return programs


class TestIncrementalBuild:
    """The copy-on-write cycle build must be observationally identical to
    the full per-cycle rebuild -- same buckets, same records, same index
    answers -- across organizations, including runs long enough for
    retention evictions to flip ``has_old_versions`` pointers."""

    @pytest.mark.parametrize(
        "requirements",
        [
            BroadcastRequirements(),
            BroadcastRequirements(needs_sgt=True),
            BroadcastRequirements(needs_old_versions=True, organization="overflow"),
        ],
        ids=["plain", "sgt", "overflow"],
    )
    def test_matches_full_rebuild_every_cycle(self, requirements):
        fast = build_run(True, requirements)
        slow = build_run(False, requirements)
        for f, s in zip(fast, slow):
            assert fingerprint(f) == fingerprint(s)

    def test_index_answers_match_full_rebuild(self):
        reqs = BroadcastRequirements(needs_old_versions=True, organization="overflow")
        fast = build_run(True, reqs)
        slow = build_run(False, reqs)
        for f, s in zip(fast, slow):
            for item in range(1, 51):
                assert f.record_of(item) == s.record_of(item)
                assert f.slots_of(item) == s.slots_of(item)
                assert f.page_of(item) == s.page_of(item)
                for after in (0.0, 3.5, 7.5, 100.0):
                    assert f.next_slot_of(item, after) == s.next_slot_of(
                        item, after
                    )
                assert f.old_versions_of(item) == s.old_versions_of(item)

    def test_previous_program_is_never_mutated(self):
        """Copy-on-write contract: a desynchronized faulty client may keep
        reading last cycle's program while this cycle's is being built."""
        params = ServerParameters(
            broadcast_size=50,
            update_range=30,
            offset=0,
            updates_per_cycle=10,
            transactions_per_cycle=5,
            items_per_bucket=5,
        )
        db = Database(params.broadcast_size)
        engine = TransactionEngine(params, db, rng=random.Random(3))
        builder = ProgramBuilder(
            params, ColumnarVersionStore(db, retention=0), incremental=True
        )
        previous = builder.build(1, None)
        frozen = fingerprint(previous)
        outcome = engine.run_cycle(1)
        current = builder.build(2, outcome)
        assert fingerprint(previous) == frozen
        # And the new program did pick up the updates.
        for item in outcome.updated_items:
            assert current.record_of(item).version == 2
            assert previous.record_of(item).version == 0

    def test_schedule_order_change_forces_reprime(self):
        class MutableSchedule:
            def __init__(self, size):
                self.order = list(range(1, size + 1))

            def item_order(self):
                return list(self.order)

        params = ServerParameters(
            broadcast_size=20,
            update_range=10,
            updates_per_cycle=2,
            items_per_bucket=5,
        )
        db = Database(params.broadcast_size)
        schedule = MutableSchedule(params.broadcast_size)
        builder = ProgramBuilder(
            params,
            ColumnarVersionStore(db, retention=0),
            schedule=schedule,
            incremental=True,
        )
        first = builder.build(1, None)
        assert first.slots_of(1) == [1]  # first data slot after control
        schedule.order.reverse()
        second = builder.build(2, None)
        # Item 20 now leads the broadcast; the persistent index followed.
        assert second.slots_of(20) == [1]
        assert second.slots_of(1) == [1 + len(second.data_buckets) - 1]

    def test_incremental_is_the_default(self):
        params = ServerParameters(
            broadcast_size=10, update_range=10, updates_per_cycle=2
        )
        builder = ProgramBuilder(
            params, ColumnarVersionStore(Database(10), retention=0)
        )
        assert builder.incremental

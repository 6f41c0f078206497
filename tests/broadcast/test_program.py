"""Tests for the broadcast program layout and lookups."""

import pytest

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    OldVersionRecord,
)
from repro.cohort.trace import KernellessServer
from repro.config import ModelParameters
from repro.core.control import BroadcastRequirements, ControlInfo, InvalidationReport
from repro.live.codec import CycleCodec, WireProfile
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry


def make_control(cycle=1):
    return ControlInfo(cycle=cycle, invalidation=InvalidationReport(cycle=cycle))


def make_program(control_slots=1, index_slots=0, with_overflow=False):
    data = [
        Bucket(index=0, records=(ItemRecord(1, 10, 0), ItemRecord(2, 20, 0))),
        Bucket(index=1, records=(ItemRecord(3, 30, 0), ItemRecord(4, 40, 0))),
    ]
    overflow = []
    if with_overflow:
        overflow = [
            Bucket(
                index=0,
                old_records=(
                    OldVersionRecord(item=1, value=9, version=2, valid_to=4),
                ),
            )
        ]
    return BroadcastProgram(
        cycle=5,
        control=make_control(5),
        data_buckets=data,
        overflow_buckets=overflow,
        control_slots=control_slots,
        index_slots=index_slots,
    )


class TestLayout:
    def test_slot_positions(self):
        program = make_program(control_slots=2, index_slots=1)
        # Layout: slots 0-1 control, slot 2 index, slots 3-4 data.
        assert program.slots_of(1) == [3]
        assert program.slots_of(3) == [4]
        assert program.first_slot_of(1) == 3 and program.first_slot_of(3) == 4
        assert program.total_slots == 5

    def test_first_slot_of_a_repeated_item(self):
        data = [
            Bucket(index=i, records=(ItemRecord(item, item, 0),))
            for i, item in enumerate([1, 2, 1, 3, 1])
        ]
        program = BroadcastProgram(cycle=1, control=make_control(), data_buckets=data)
        assert program.first_slot_of(1) == program.slots_of(1)[0] == 1
        assert program.first_slot_of(3) == program.slots_of(3)[0] == 4

    def test_total_slots_includes_overflow(self):
        program = make_program(with_overflow=True)
        assert program.total_slots == 1 + 2 + 1

    def test_control_slots_minimum(self):
        with pytest.raises(ValueError):
            make_program(control_slots=0)

    def test_page_of(self):
        program = make_program(control_slots=3)
        assert program.page_of(1) == 0
        assert program.page_of(2) == 0
        assert program.page_of(3) == 1

    def test_unknown_item_raises(self):
        program = make_program()
        with pytest.raises(KeyError):
            program.record_of(99)
        with pytest.raises(KeyError):
            program.slots_of(99)
        with pytest.raises(KeyError):
            program.first_slot_of(99)
        with pytest.raises(KeyError):
            program.page_of(99)


class TestNextSlot:
    def test_before_slot_returns_it(self):
        program = make_program()  # data at slots 1, 2
        assert program.next_slot_of(1, after=0.0) == 1
        assert program.next_slot_of(3, after=0.0) == 2

    def test_delivery_moment_is_mid_slot(self):
        program = make_program()
        # Item 1 delivered at slot-relative 1.5; asking just before gets it.
        assert program.next_slot_of(1, after=1.4) == 1
        # The delivery instant itself is inclusive: a process waking at
        # exactly 1.5 (timeout landing on the boundary) still hears the
        # bucket.  The old strict `>` silently cost it a full cycle.
        assert program.next_slot_of(1, after=1.5) == 1
        # Just past the instant, the copy is gone.
        assert program.next_slot_of(1, after=1.5 + 1e-9) is None

    def test_flown_by_returns_none(self):
        program = make_program()
        assert program.next_slot_of(1, after=3.0) is None


class TestOldVersions:
    def test_old_version_lookup_by_coverage(self):
        program = make_program(with_overflow=True)
        hit = program.old_version_at(1, 3)
        assert hit is not None
        old, slot = hit
        assert old.value == 9
        assert slot == 3  # after control (1) + data (2)
        assert program.old_version_at(1, 1) is None  # before valid_from
        assert program.old_version_at(1, 5) is None  # after valid_to
        assert program.old_version_at(2, 3) is None  # no old versions

    def test_old_versions_of_and_count(self):
        program = make_program(with_overflow=True)
        assert len(program.old_versions_of(1)) == 1
        assert program.total_old_versions == 1

    def test_old_version_record_covers(self):
        old = OldVersionRecord(item=1, value=1, version=3, valid_to=5)
        assert not old.covers(2)
        assert old.covers(3) and old.covers(5)
        assert not old.covers(6)


def test_bucket_items_property():
    bucket = Bucket(index=0, records=(ItemRecord(7, 1, 0), ItemRecord(8, 2, 0)))
    assert bucket.items == (7, 8)


def test_repr_smoke():
    assert "BroadcastProgram" in repr(make_program())


# -- the old-version index is built on first use ------------------------------


def eager_old_versions(program):
    """The index as the constructor used to build it, for comparison."""
    index = {}
    start = program.total_slots - len(program.overflow_buckets)
    for offset, bucket in enumerate(program.overflow_buckets):
        for old in bucket.old_records:
            index.setdefault(old.item, []).append((old, start + offset))
    if program._scanned_data:
        start -= len(program.data_buckets)
        for offset, bucket in enumerate(program.data_buckets):
            for old in bucket.old_records:
                index.setdefault(old.item, []).append((old, start + offset))
    return index


def _aired(organization):
    """What the server loop airs for ``organization`` over 40 cycles."""
    params = ModelParameters().with_sim(num_cycles=40, seed=11)
    requirements = BroadcastRequirements(
        needs_old_versions=True, organization=organization
    )
    server = KernellessServer(
        params, requirements, MetricsRegistry(), SeedOrder(11).engine_rng()
    )
    return params, requirements, [record.program for record in server.cycles()]


@pytest.mark.parametrize("organization", ["overflow", "clustered"])
def test_lazy_old_version_index_equals_the_eager_one(organization):
    params, requirements, programs = _aired(organization)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    total = 0
    for program in programs:
        # The server airs a program without ever asking for the index.
        assert "_old_versions" not in vars(program)
        frames = encoder.encode_cycle(program, 0)
        heard = listener.decode_cycle(frames)[0]  # CycleCodec.assemble
        for built in (program, heard):
            want = eager_old_versions(built)
            assert built.total_old_versions == sum(map(len, want.values()))
            assert built._old_versions == want
            for item, olds in want.items():
                assert built.old_versions_of(item) == [old for old, _ in olds]
                for old, slot in olds:
                    assert built.old_version_at(item, old.version) == (old, slot)
        total += program.total_old_versions
    assert total > 0


def test_old_version_index_waits_for_the_first_lookup():
    for lookup in (
        lambda p: p.old_version_at(1, 3),
        lambda p: p.old_versions_of(1),
        lambda p: p.total_old_versions,
    ):
        program = make_program(with_overflow=True)
        assert "_old_versions" not in vars(program)
        lookup(program)
        assert program._old_versions == eager_old_versions(program)

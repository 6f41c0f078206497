"""The codec's two memories: a long-lived codec equals a fresh one.

A DATA/OVERFLOW payload is a pure function of its bucket, so a codec
may skip packing a bucket object it encoded last cycle and skip parsing
payload bytes it decoded last cycle.  Neither shortcut may ever show:

* differential -- over real ``ProgramBuilder`` cycles a long-lived
  codec's frames equal a fresh codec's byte for byte, and its decoded
  program equals a fresh decoder's and the built one;
* Hypothesis -- a bucket's payload does not depend on the cycle it airs
  in, and whatever program follows whatever other, reuse happens only
  where the bucket object (encoder) or the payload bytes (decoder) are
  the same;
* hostile slots and bucket indices leave the decoder's memory at the
  size the last CONTROL frame announced, templates included;
* the listener's assembly -- item lookups patched from the last
  program -- equals a fresh scan over built cycles, back-filled lost
  slots, layouts that lie and Hypothesis segments that repeat items.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.cohort.trace import KernellessServer
from repro.config import ModelParameters, ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    report_from_updates,
)
from repro.live.codec import (
    DATA,
    HEADER_BYTES,
    OVERFLOW,
    CycleCodec,
    WireProfile,
    decode_frame,
    encode_frame,
)
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry
from tests.live.program_equality import programs_equal
from tests.live.test_codec import wire_profiles, wire_programs

CYCLES = 45


def _built_programs(organization, sgt, seed=11, cycles=CYCLES):
    """``(params, requirements, records)``: what the server loop airs under
    ``seed`` -- one ``(cycle, start, program)`` record per cycle."""
    params = ModelParameters().with_sim(num_cycles=cycles, seed=seed)
    requirements = BroadcastRequirements(
        needs_old_versions=organization is not None,
        organization=organization or "overflow",
        needs_sgt=sgt,
    )
    server = KernellessServer(
        params, requirements, MetricsRegistry(), SeedOrder(seed).engine_rng()
    )
    return params, requirements, list(server.cycles())


def _payloads(frames):
    return [frame[HEADER_BYTES:] for frame in frames[1:]]


@pytest.mark.parametrize(
    "organization, sgt",
    [(None, False), ("overflow", False), ("clustered", False), (None, True)],
    ids=["flat", "overflow", "clustered", "sgt"],
)
def test_long_lived_codec_equals_a_fresh_one_over_built_cycles(organization, sgt):
    params, requirements, records = _built_programs(organization, sgt)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, decoder = CycleCodec(profile), CycleCodec(profile)
    previous = None
    reused = 0
    for record in records:
        program, start_slot = record.program, int(record.start)
        frames = encoder.encode_cycle(program, start_slot)
        assert frames == CycleCodec(profile).encode_cycle(program, start_slot)

        decoded, decoded_slot = decoder.decode_cycle(frames)
        fresh, _ = CycleCodec(profile).decode_cycle(frames)
        assert decoded_slot == start_slot
        assert programs_equal(decoded, fresh)
        assert programs_equal(decoded, program)

        if previous is not None:
            reused += sum(
                1
                for old, new in zip(previous.data_buckets, decoded.data_buckets)
                if old is new
            )
        previous = decoded
    # The shortcut is taken where item positions are fixed: an untouched
    # bucket comes back as the very object decoded the cycle before.
    # (Clustered programs are rebuilt whole, so there is nothing to reuse.)
    if organization != "clustered":
        assert reused > CYCLES


def _replaced(program: BroadcastProgram, cycle: int, data, overflow):
    return BroadcastProgram(
        cycle=cycle,
        control=program.control,
        data_buckets=data,
        overflow_buckets=overflow,
        control_slots=program.control_slots,
        index_slots=program.index_slots,
        organization=program.organization,
    )


def _scanned(program: BroadcastProgram) -> BroadcastProgram:
    """The same program with its item lookups found by a scan."""
    return _replaced(
        program, program.cycle, program.data_buckets, program.overflow_buckets
    )


def _heard(codec: CycleCodec, frames):
    """``(header, data, overflow)``: one cycle decoded frame by frame, as
    ``LiveClient`` does before it assembles."""
    decoded = [decode_frame(raw)[0] for raw in frames]
    header = codec.decode_control(decoded[0])
    data = [codec.decode_data_bucket(f, header) for f in decoded if f.type == DATA]
    overflow = [codec.decode_overflow_bucket(f) for f in decoded if f.type == OVERFLOW]
    return header, data, overflow


# -- the listener's assembly: patched lookups equal a scan ----------------------


@pytest.mark.parametrize(
    "organization, sgt",
    [(None, False), ("overflow", False), ("clustered", False), (None, True)],
    ids=["flat", "overflow", "clustered", "sgt"],
)
def test_a_long_lived_listener_assembles_what_a_fresh_scan_does(organization, sgt):
    """Cycle for cycle, down to every lookup a client makes: items,
    records, slots, pages and old versions."""
    params, requirements, records = _built_programs(organization, sgt)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    previous, patched = None, 0
    for record in records:
        frames = encoder.encode_cycle(record.program, int(record.start))
        decoded, _ = listener.decode_cycle(frames)
        assert programs_equal(decoded, _scanned(decoded))
        assert programs_equal(decoded, record.program)
        assert programs_equal(decoded, CycleCodec(profile).decode_cycle(frames)[0])
        if previous is not None and decoded._item_offsets is previous._item_offsets:
            patched += 1
        previous = decoded
    if organization == "clustered":
        assert patched == 0 and listener._assembled is None
    else:
        # Every cycle after the first is patched: positions never move.
        assert patched == len(records) - 1


@pytest.mark.parametrize("organization", [None, "overflow"])
def test_backfilled_buckets_assemble_as_the_scan(organization):
    """A lost data slot is back-filled from the last program, as
    ``LiveClient`` does: stale records in a new ``Bucket`` object."""
    params, requirements, records = _built_programs(organization, False)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    rng = random.Random(3)
    previous = None
    for record in records:
        frames = encoder.encode_cycle(record.program, int(record.start))
        header, data, overflow = _heard(listener, frames)
        if previous is not None:
            for offset in rng.sample(range(len(data)), 5):
                stale = previous.data_buckets[offset]
                data[offset] = Bucket(index=stale.index, records=stale.records)
        previous = listener.assemble(header, data, overflow)
        assert programs_equal(previous, _scanned(previous))


def _liars(program: BroadcastProgram):
    """Data segments that disagree with ``program``'s layout at one offset."""
    data = program.data_buckets
    first, second = data[3].records, data[4].records
    yield "swapped records", [
        *data[:3],
        Bucket(index=3, records=(second[0], *first[1:])),
        Bucket(index=4, records=(first[0], *second[1:])),
        *data[5:],
    ]
    yield "one record fewer", [*data[:3], Bucket(index=3, records=first[1:]), *data[4:]]
    yield "one record more", [
        *data[:3], Bucket(index=3, records=(*first, second[0])), *data[4:]
    ]
    yield "one bucket fewer", data[:-1]


@pytest.mark.parametrize("liar", ["swapped records", "one record fewer",
                                  "one record more", "one bucket fewer"])
def test_a_layout_liar_forces_a_rebuild(liar):
    """A DATA bucket that names other items than the one it replaces:
    the next program is scanned, and the one after it patched again."""
    params, requirements, records = _built_programs(None, False, cycles=12)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    programs = [record.program for record in records]
    lying = dict(_liars(programs[5]))[liar]
    liar_program = _replaced(programs[5], programs[5].cycle, lying, [])
    sequence = [*programs[:5], liar_program, *programs[6:]]
    layouts = []
    for program in sequence:
        decoded, _ = listener.decode_cycle(encoder.encode_cycle(program, 0))
        assert programs_equal(decoded, _scanned(program))
        layouts.append(decoded._item_offsets)
    # Before the liar and after the truth is back, one layout object each.
    assert len({id(layout) for layout in layouts[:5]}) == 1
    assert layouts[5] is not layouts[4] and layouts[6] is not layouts[5]
    assert all(layout is layouts[6] for layout in layouts[6:])


def test_old_records_in_a_data_bucket_are_left_to_the_scan():
    """Old versions ride in data buckets only under the clustered
    organization, but ``assemble`` may be handed some elsewhere (by a
    caller that decoded them itself); the program then indexes them
    by its own scan, from a fresh codec and from a long-lived one."""
    params, requirements, records = _built_programs(None, False, cycles=8)
    profile = WireProfile.from_params(params.server, requirements)
    encoder = CycleCodec(profile)
    frames = [encoder.encode_cycle(r.program, 0) for r in records[-2:]]
    long_lived = CycleCodec(profile)
    long_lived.assemble(*_heard(long_lived, frames[0]))
    for listener in (long_lived, CycleCodec(profile)):
        header, data, overflow = _heard(listener, frames[1])
        first = data[0].records[0]
        old = OldVersionRecord(item=first.item, value=1, version=0, valid_to=0)
        data[0] = Bucket(index=0, records=data[0].records, old_records=(old,))
        program = listener.assemble(header, data, overflow)
        assert programs_equal(program, _scanned(program))
        assert program.old_version_at(first.item, 0) == (old, program.slots_of(first.item)[0])


_LISTENER = WireProfile(
    key_bits=32, data_bits=64, version_bits=3, tid_bits=2, items_per_bucket=4,
    span=0, sgt=False, organization=MultiversionOrganization.NONE,
)


@st.composite
def _evolving_segments(draw):
    """Data segments over six items, repeated within and across buckets,
    each after the first keeping some buckets (the same objects),
    re-valuing others in place and now and then laying one out anew."""

    def records(cycle, items):
        return tuple(
            ItemRecord(item, draw(st.integers(-50, 50)), draw(st.integers(0, cycle)))
            for item in items
        )

    items = st.lists(st.integers(1, 6), min_size=0, max_size=4)
    cycle = 1
    segment = [
        Bucket(index=i, records=records(cycle, draw(items)))
        for i in range(draw(st.integers(1, 4)))
    ]
    segments = [segment]
    for _ in range(draw(st.integers(1, 6))):
        cycle += 1
        step = []
        for bucket in segment:
            move = draw(st.sampled_from(["keep", "keep", "revalue", "revalue", "relay"]))
            if move == "keep":
                step.append(bucket)
            elif move == "revalue":
                # Some records kept as the same objects, others new.
                kept = [draw(st.booleans()) for _ in bucket.records]
                fresh = records(cycle, bucket.items)
                step.append(Bucket(index=bucket.index, records=tuple(
                    old if keep else new
                    for old, new, keep in zip(bucket.records, fresh, kept)
                )))
            else:
                step.append(Bucket(index=bucket.index, records=records(cycle, draw(items))))
        if draw(st.integers(0, 9)) == 0:
            step.append(Bucket(index=len(step), records=records(cycle, draw(items))))
        segment = step
        segments.append(segment)
    return segments


@settings(max_examples=200, deadline=None)
@given(_evolving_segments())
def test_patched_lookups_equal_the_scan_on_any_segment_sequence(segments):
    """Of an item aired at several offsets the scan keeps the last
    offset's record; so must a patch that touched only one of them."""
    encoder, listener = CycleCodec(_LISTENER), CycleCodec(_LISTENER)
    for cycle, segment in enumerate(segments, start=1):
        program = BroadcastProgram(
            cycle=cycle,
            control=ControlInfo(
                cycle=cycle, invalidation=report_from_updates(cycle, frozenset())
            ),
            data_buckets=segment,
        )
        decoded, _ = listener.decode_cycle(encoder.encode_cycle(program, 0))
        assert programs_equal(decoded, program)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 1000))
def test_bucket_payload_does_not_depend_on_the_cycle(data, later_by):
    profile = data.draw(wire_profiles())
    program = data.draw(wire_programs(profile))
    later = _replaced(
        program,
        program.cycle + later_by,
        program.data_buckets,
        program.overflow_buckets,
    )
    codec = CycleCodec(profile)
    now = codec.encode_cycle(program, 0)
    then = codec.encode_cycle(later, 77)
    assert _payloads(now) == _payloads(then)
    assert then == CycleCodec(profile).encode_cycle(later, 77)
    # ...and a decoder that has seen the bytes at one cycle reads them
    # the same at another.
    decoder = CycleCodec(profile)
    decoder.decode_cycle(now)
    assert programs_equal(decoder.decode_cycle(then)[0], later)


def _mix(data, ours, theirs):
    """``ours`` with some positions holding the very objects of ``theirs``."""
    return [
        theirs[i] if i < len(theirs) and data.draw(st.booleans()) else bucket
        for i, bucket in enumerate(ours)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reuse_happens_only_where_nothing_changed(data):
    """Any program after any other: buckets replaced at some offsets and
    kept (the same objects) at others, bucket counts that differ."""
    profile = data.draw(wire_profiles())
    first = data.draw(wire_programs(profile))
    drawn = data.draw(wire_programs(profile))
    second = _replaced(
        drawn,
        max(first.cycle, drawn.cycle),
        _mix(data, drawn.data_buckets, first.data_buckets),
        _mix(data, drawn.overflow_buckets, first.overflow_buckets),
    )
    codec = CycleCodec(profile)
    before = codec.encode_cycle(first, 0)
    frames = codec.encode_cycle(second, 3)
    assert frames == CycleCodec(profile).encode_cycle(second, 3)

    decoder = CycleCodec(profile)
    decoder.decode_cycle(before)
    decoded, start_slot = decoder.decode_cycle(frames)
    assert start_slot == 3
    assert programs_equal(decoded, second)


def test_a_change_of_organization_is_a_miss_at_every_offset():
    """The same bucket objects mean different bytes once old versions
    ride (or stop riding) in the data buckets."""
    profile = WireProfile.from_params(
        ServerParameters(),
        BroadcastRequirements(needs_old_versions=True, organization="clustered"),
    )
    buckets = [
        Bucket(index=i, records=(ItemRecord(item=i + 1, value=i, version=2),))
        for i in range(3)
    ]

    def program(cycle, organization):
        return BroadcastProgram(
            cycle=cycle,
            control=ControlInfo(
                cycle=cycle, invalidation=report_from_updates(cycle, frozenset())
            ),
            data_buckets=buckets,
            organization=organization,
        )

    codec, decoder = CycleCodec(profile), CycleCodec(profile)
    for cycle, organization in enumerate(
        (
            MultiversionOrganization.CLUSTERED,
            MultiversionOrganization.NONE,
            MultiversionOrganization.CLUSTERED,
        ),
        start=3,
    ):
        aired = program(cycle, organization)
        frames = codec.encode_cycle(aired, 0)
        assert frames == CycleCodec(profile).encode_cycle(aired, 0)
        assert programs_equal(decoder.decode_cycle(frames)[0], aired)
    plain = _payloads(codec.encode_cycle(program(6, MultiversionOrganization.NONE), 0))
    assert [len(p) + 2 for p in plain] == [len(p) for p in _payloads(frames)]


def test_hostile_slots_and_indices_do_not_grow_the_memories():
    params, requirements, records = _built_programs("overflow", False)
    program = records[-1].program
    assert program.overflow_buckets
    codec = CycleCodec(WireProfile.from_params(params.server, requirements))
    frames = [decode_frame(raw)[0] for raw in codec.encode_cycle(program, 0)]
    header = codec.decode_control(frames[0])
    sizes = (header.num_data_buckets, header.num_overflow_buckets)
    assert sizes == (len(program.data_buckets), len(program.overflow_buckets))

    def memory():
        return len(codec._heard_data)

    assert memory() == sizes[0]
    rng = random.Random(5)
    for frame in frames[1:]:
        for slot in (rng.randrange(2**32) for _ in range(20)):
            # Any slot, and a bucket index to match: still the right
            # bucket, from a memory that stays as large as announced.
            payload = bytearray(frame.payload)
            payload[:4] = slot.to_bytes(4, "big")
            moved = decode_frame(
                encode_frame(frame.type, frame.cycle, slot, bytes(payload))
            )[0]
            if frame.type == DATA:
                bucket = codec.decode_data_bucket(moved, header)
                expected = program.data_buckets[frame.slot - header.control_slots]
            else:
                assert frame.type == OVERFLOW
                bucket = codec.decode_overflow_bucket(moved)
                expected = program.overflow_buckets[
                    frame.slot - header.control_slots - sizes[0]
                ]
            assert bucket.index == slot
            assert bucket.records == expected.records
            assert bucket.old_records == expected.old_records
            assert memory() == sizes[0]

    # A smaller program shrinks both ends' memories with it.
    smaller = _replaced(program, program.cycle, program.data_buckets[:2], [])
    raw = codec.encode_cycle(smaller, 0)
    codec.decode_cycle(raw)
    assert memory() == 2
    assert len(codec._aired_data) == 2


    # The encoder's third memory, one template per record on the air:
    # 200 multiversion cycles, every one of them retiring a cohort of old
    # versions and admitting another.  Once the overflow segment is full
    # (retention 16) the memory is as large at cycle 200 as at cycle 40.
    # The listener's templates ride in its data-bucket memory, one slot
    # per record of the data buckets the last CONTROL announced, and
    # nowhere else.
    params, requirements, records = _built_programs("overflow", False, cycles=200)
    profile = WireProfile.from_params(params.server, requirements)
    codec, listener = CycleCodec(profile), CycleCodec(profile)
    assert params.server.retention == 16
    sizes, on_air, held = [], [], []
    for record in records:
        listener.decode_cycle(codec.encode_cycle(record.program, int(record.start)))
        sizes.append(len(codec._templates))
        on_air.append(
            sum(
                len(bucket.records) + len(bucket.old_records)
                for bucket in record.program.data_buckets
                + record.program.overflow_buckets
            )
        )
        templates = 0
        for _payload, _base, bucket, kept in listener._heard_data:
            assert len(kept) == len(bucket.records)
            templates += sum(entry is not None for entry in kept)
        held.append(templates)
    assert len(sizes) == 200
    for size, live in zip(sizes, on_air):
        # Never fewer than what is aired, never more than the sweep's
        # slack over the most that ever was.
        assert live <= size <= 1.25 * max(on_air)
    assert max(on_air[100:]) <= 1.05 * min(on_air[40:])  # the ramp is over
    assert max(sizes[100:]) <= 1.25 * max(on_air[100:])
    assert len(codec._template_ks) <= 32  # K is interned per record shape
    assert all(templates <= live for templates, live in zip(held, on_air))
    assert max(held[100:]) > 0 and not listener._templates

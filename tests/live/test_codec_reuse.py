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
  size the last CONTROL frame announced.
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
)
from repro.cohort.trace import build_trace
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
    programs_equal,
)
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry
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
    trace = build_trace(
        params, requirements, MetricsRegistry(), SeedOrder(seed).engine_rng()
    )
    return params, requirements, trace.records


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
        return (len(codec._heard_data), len(codec._heard_overflow))

    assert memory() == sizes
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
            assert memory() == sizes

    # A smaller program shrinks both ends' memories with it.
    smaller = _replaced(program, program.cycle, program.data_buckets[:2], [])
    raw = codec.encode_cycle(smaller, 0)
    codec.decode_cycle(raw)
    assert memory() == (2, 0)
    assert (len(codec._aired_data), len(codec._aired_overflow)) == (2, 0)


    # The encoder's third memory, one template per record on the air:
    # 200 multiversion cycles, every one of them retiring a cohort of old
    # versions and admitting another.  Once the overflow segment is full
    # (retention 16) the memory is as large at cycle 200 as at cycle 40.
    params, requirements, records = _built_programs("overflow", False, cycles=200)
    codec = CycleCodec(WireProfile.from_params(params.server, requirements))
    assert params.server.retention == 16
    sizes, on_air = [], []
    for record in records:
        codec.encode_cycle(record.program, int(record.start))
        sizes.append(len(codec._templates))
        on_air.append(
            sum(
                len(bucket.records) + len(bucket.old_records)
                for bucket in record.program.data_buckets
                + record.program.overflow_buckets
            )
        )
    assert len(sizes) == 200
    for size, live in zip(sizes, on_air):
        # Never fewer than what is aired, never more than the sweep's
        # slack over the most that ever was.
        assert live <= size <= 1.25 * max(on_air)
    assert max(on_air[100:]) <= 1.05 * min(on_air[40:])  # the ramp is over
    assert max(sizes[100:]) <= 1.25 * max(on_air[100:])
    assert len(codec._template_ks) <= 32  # K is interned per record shape

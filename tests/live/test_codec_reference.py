"""The record-at-a-time codec against the field-wise reference model.

``reference_codec.ReferenceCodec`` packs and parses a bucket payload one
``BitWriter.write`` / ``BitReader.read`` per field, as the codec did
before it cut templates.  Five nets:

* *differential* -- over the built programs of the four families of
  ``test_codec_reuse`` a long-lived codec, a fresh codec and the
  reference air the same frames and decode them to equal programs;
* *templates* (Hypothesis) -- a template cut under one base and replayed
  under any base of its ``[lo, hi)``, both ends included, is the
  reference's pack under that base, and so is the recut just outside;
* *error parity* -- whatever the reference refuses, the codec refuses;
* *the dict store* -- fresh record objects every cycle (every record a
  miss) air the bytes the columnar store's long-lived records air;
* *the listener's templates* (Hypothesis) -- a long-lived decoder that
  reads unchanged records through templates parses, or refuses, every
  payload as the reference does, with bases on the templates' edges and
  bits flipped inside a record it would reuse.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.config import ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    report_from_updates,
)
from repro.graph.sgraph import TxnId
from repro.live.codec import (
    DATA,
    MAX_PAYLOAD_BYTES,
    BitWriter,
    CodecError,
    ControlHeader,
    CycleCodec,
    WireProfile,
    decode_frame,
    encode_frame,
)
from tests.live.program_equality import programs_equal
from tests.live.reference_codec import ReferenceCodec
from tests.live.test_codec import wire_cases
from tests.live.test_codec_reuse import _built_programs
from tests.server.test_columnar_oracle import _build_pair

NONE = MultiversionOrganization.NONE
CLUSTERED = MultiversionOrganization.CLUSTERED
OVERFLOW_ORG = MultiversionOrganization.OVERFLOW


def _profile(organization=NONE, version_bits=1, tid_bits=4, span=0):
    return WireProfile(
        key_bits=32,
        data_bits=160,
        version_bits=version_bits,
        tid_bits=tid_bits,
        items_per_bucket=10,
        span=span,
        sgt=False,
        organization=organization,
    )


#: The flat profile (1-bit ages: only age 0 rides inline) and retention 16.
FLAT = _profile()
RETAINED = _profile(OVERFLOW_ORG, version_bits=4, span=16)


def _program(organization, cycle, data=(), overflow=()):
    return BroadcastProgram(
        cycle=cycle,
        control=ControlInfo(
            cycle=cycle, invalidation=report_from_updates(cycle, frozenset())
        ),
        data_buckets=list(data),
        overflow_buckets=list(overflow),
        organization=organization,
    )


# -- (i) differential over built programs ---------------------------------------


@pytest.mark.parametrize(
    "organization, sgt",
    [(None, False), ("overflow", False), ("clustered", False), (None, True)],
    ids=["flat", "overflow", "clustered", "sgt"],
)
def test_codec_equals_the_reference_over_built_cycles(organization, sgt):
    params, requirements, records = _built_programs(organization, sgt)
    profile = WireProfile.from_params(params.server, requirements)
    long_lived, listener = CycleCodec(profile), CycleCodec(profile)
    reference, reference_listener = ReferenceCodec(profile), ReferenceCodec(profile)
    for record in records:
        program, start_slot = record.program, int(record.start)
        frames = reference.encode_cycle(program, start_slot)
        assert long_lived.encode_cycle(program, start_slot) == frames
        assert CycleCodec(profile).encode_cycle(program, start_slot) == frames

        expected, _ = reference_listener.decode_cycle(frames)
        assert programs_equal(expected, program)
        for codec in (listener, CycleCodec(profile)):
            decoded, decoded_slot = codec.decode_cycle(frames)
            assert decoded_slot == start_slot
            assert programs_equal(decoded, expected)
    # The long-lived encoder did take its shortcut, and forgot what left
    # the air (the clustered builder makes every record anew each cycle).
    live = sum(
        len(bucket.records) + len(bucket.old_records)
        for bucket in program.data_buckets + program.overflow_buckets
    )
    assert live <= len(long_lived._templates) <= max(64, 1.25 * live) + live


@settings(max_examples=150, deadline=None)
@given(wire_cases(), st.integers(0, 50))
def test_codec_equals_the_reference_on_any_program(case, later_by):
    """...and on programs no builder makes: every organization, tiny age
    fields, escapes everywhere, then the same buckets some cycles on."""
    profile, program = case
    codec, reference = CycleCodec(profile), ReferenceCodec(profile)
    for cycle in (program.cycle, program.cycle + later_by):
        aired = BroadcastProgram(
            cycle=cycle,
            control=program.control,
            data_buckets=program.data_buckets,
            overflow_buckets=program.overflow_buckets,
            control_slots=program.control_slots,
            index_slots=program.index_slots,
            organization=program.organization,
        )
        frames = reference.encode_cycle(aired, 3)
        assert codec.encode_cycle(aired, 3) == frames
        assert programs_equal(
            codec.decode_cycle(frames)[0], reference.decode_cycle(frames)[0]
        )


# -- (ii) templates are the reference pack, anywhere in their interval ----------


def _records(old):
    stamps = st.integers(0, 60)
    writers = st.none() | st.builds(TxnId, cycle=stamps, seq=st.integers(0, 40))
    values = st.integers(-(2**31), 2**31 - 1)
    if old:
        return st.builds(
            lambda item, value, version, span, writer: OldVersionRecord(
                item, value, version, version + span, writer
            ),
            st.integers(1, 300), values, stamps, st.integers(0, 40), writers,
        )
    return st.builds(
        ItemRecord,
        item=st.integers(1, 300), value=values, version=stamps, writer=writers,
    )


def _top(record):
    cycle = record.writer.cycle if record.writer is not None else 0
    return max(record.version, cycle)


def _check_template(profile, record, base):
    """Cut at ``base``; replay across the interval; recut just outside."""
    old = isinstance(record, OldVersionRecord)
    codec, reference = CycleCodec(profile), ReferenceCodec(profile)
    kept, t, nbits, k, lo, hi, top = codec._cut(record, base, old)
    assert kept is record and top == _top(record)
    assert lo <= base < hi
    assert (t + base * k, nbits) == reference.pack(record, base)

    inside = {lo, hi - 1, (lo + hi) // 2, min(base + 1, hi - 1), max(base - 1, lo)}
    for other in inside:
        assert (t + other * k, nbits) == reference.pack(record, other)
    for outside in (lo - 1, hi):
        if not 0 <= outside < 2**32:
            continue  # the bucket's 32-bit base field refuses it first
        try:
            expected = reference.pack(record, outside)
        except CodecError:
            # Below one of the record's stamps: a negative age.
            with pytest.raises(CodecError):
                codec._cut(record, outside, old)
            continue
        _, t2, nbits2, k2, lo2, hi2, _ = codec._cut(record, outside, old)
        assert lo2 <= outside < hi2
        assert (t2 + outside * k2, nbits2) == expected
        # A different regime: some age crossed its marker.
        assert (nbits2, k2) != (nbits, k)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_template_replays_as_the_reference_pack(data):
    profile = data.draw(st.sampled_from([FLAT, RETAINED, _profile(CLUSTERED, 3, 2, 6)]))
    record = data.draw(_records(old=data.draw(st.booleans())))
    base = data.draw(st.integers(_top(record), _top(record) + 70))
    _check_template(profile, record, base)


@pytest.mark.parametrize("profile", [FLAT, RETAINED], ids=["flat", "retention16"])
def test_template_intervals_end_where_an_age_meets_its_marker(profile):
    marker = (1 << profile.version_bits) - 1
    writer = TxnId(cycle=20, seq=3)
    record = ItemRecord(item=7, value=-5, version=20, writer=writer)
    # Inline while the age is below the marker...
    assert _check_template(profile, record, 20) == (20, 20 + marker)
    assert _check_template(profile, record, 20 + marker - 1) == (20, 20 + marker)
    # ...escaped from the marker on, as far as the 32-bit base reaches,
    assert _check_template(profile, record, 20 + marker) == (20 + marker, 1 << 32)
    # and the two stamps of one record cross at different bases.
    split = ItemRecord(item=7, value=-5, version=18, writer=writer)
    assert _check_template(profile, split, 20) == (
        (20, 18 + marker) if marker > 2 else (20, 20 + marker)
    )

    # No stamp at all: one template for every base.
    unstamped = ItemRecord(item=7, value=2**31, version=0, writer=None)
    assert _check_template(profile, unstamped, 5) == (0, 1 << 32)

    if profile is RETAINED:
        # An old version whose validity span is escaped and whose
        # writer's sequence number is, too; the span is not base-relative.
        old = OldVersionRecord(
            item=9, value=-(2**31), version=4, valid_to=40, writer=TxnId(4, 200)
        )
        assert _check_template(profile, old, 12) == (4, 4 + marker)
        assert _check_template(profile, old, 30) == (4 + marker, 1 << 32)


def test_an_overflow_chunk_whose_base_moves_down_is_recut():
    """Evicting the newest cohort of a chunk lowers its base: records
    aired escaped come back inline, from the same long-lived codec."""
    profile = RETAINED
    old = [
        OldVersionRecord(
            item=i, value=i, version=10 + i, valid_to=12 + i, writer=TxnId(10 + i, i)
        )
        for i in range(4)
    ]
    newest = OldVersionRecord(item=9, value=9, version=40, valid_to=41, writer=TxnId(40, 1))
    codec, reference = CycleCodec(profile), ReferenceCodec(profile)
    for cycle, records in (
        (41, (newest, *old)),  # base 40: every old age is escaped
        (42, tuple(old)),  # base 13: the same objects, inline
        (43, (newest, *old[1:])),  # and up again
    ):
        program = _program(
            OVERFLOW_ORG, cycle, overflow=[Bucket(index=0, old_records=records)]
        )
        frames = codec.encode_cycle(program, 0)
        assert frames == reference.encode_cycle(program, 0)
        assert programs_equal(codec.decode_cycle(frames)[0], program)


# -- (iii) error parity -----------------------------------------------------------


def _refused_programs():
    ok = ItemRecord(item=1, value=0, version=3, writer=TxnId(3, 1))
    old = OldVersionRecord(item=1, value=0, version=1, valid_to=2, writer=None)

    def data(*records, old_records=(), index=0):
        return dict(data=[Bucket(index=index, records=records, old_records=old_records)])

    def overflow(*old_records, records=()):
        return dict(overflow=[Bucket(index=0, records=records, old_records=old_records)])

    yield "key too wide", FLAT, data(ItemRecord(item=2**32, value=0, version=0))
    yield "negative key", FLAT, data(ItemRecord(item=-1, value=0, version=0))
    yield "value too wide", FLAT, data(ItemRecord(item=1, value=2**159, version=0))
    yield "value too negative", FLAT, data(ItemRecord(item=1, value=-(2**159) - 1, version=0))
    yield "index too wide", FLAT, data(ok, index=2**32)
    yield "negative index", FLAT, data(ok, index=-1)
    yield "count too wide", FLAT, data(*[ItemRecord(item=1, value=0, version=0)] * 2**16)
    yield "stamp after the cycle", FLAT, data(ItemRecord(item=1, value=0, version=9))
    yield "age of 2**32", FLAT, data(
        ItemRecord(item=1, value=0, version=3 - 2**32), ok
    )
    yield "negative sequence number", FLAT, data(
        ItemRecord(item=1, value=0, version=3, writer=TxnId(3, -1))
    )
    yield "sequence number of 2**32", FLAT, data(
        ItemRecord(item=1, value=0, version=3, writer=TxnId(3, 2**32))
    )
    yield "pointer bit under flat", FLAT, data(
        ItemRecord(item=1, value=0, version=0, has_old_versions=True)
    )
    yield "old records in a flat data bucket", FLAT, data(ok, old_records=(old,))
    yield "records in an overflow bucket", RETAINED, overflow(old, records=(ok,))
    yield "validity ends before it starts", RETAINED, overflow(
        OldVersionRecord(item=1, value=0, version=3, valid_to=2)
    )
    yield "validity span of 2**32", RETAINED, overflow(
        OldVersionRecord(item=1, value=0, version=3, valid_to=3 + 2**32)
    )


@pytest.mark.parametrize(
    "profile, buckets",
    [
        pytest.param(profile, buckets, id=name)
        for name, profile, buckets in _refused_programs()
    ],
)
def test_what_the_reference_refuses_to_encode_the_codec_refuses(profile, buckets):
    program = _program(profile.organization, 5, **buckets)
    for make in (ReferenceCodec, CycleCodec):
        with pytest.raises(CodecError):
            make(profile).encode_cycle(program, 0)


def test_a_refused_record_leaves_no_template_behind():
    """A record is checked when its template is cut: one that fails has
    none, and fails again from the same codec."""
    codec = CycleCodec(FLAT)
    bad = ItemRecord(item=1, value=0, version=0, has_old_versions=True)
    program = _program(NONE, 5, data=[Bucket(index=0, records=(bad,))])
    for _ in range(2):
        with pytest.raises(CodecError, match="has_old_versions"):
            codec.encode_cycle(program, 0)
    assert not codec._templates


def test_the_field_helpers_of_the_reference_check_what_they_write():
    """The helper-level checks of ``test_layout_violations_raise_codec_errors``
    moved here with the helpers."""
    reference = ReferenceCodec(
        WireProfile(
            key_bits=32, data_bits=32, version_bits=4, tid_bits=4,
            items_per_bucket=10, span=0, sgt=False, organization=NONE,
        )
    )
    pointer = ItemRecord(item=1, value=0, version=0, writer=None, has_old_versions=True)
    with pytest.raises(CodecError):
        reference._write_record(BitWriter(), pointer, base=0)
    with pytest.raises(CodecError):
        reference._write_value(BitWriter(), 2**40)
    with pytest.raises(CodecError):
        reference._write_version(BitWriter(), version=9, base=3)


def test_a_payload_over_the_frame_limit_is_refused_where_it_is_made():
    wide = WireProfile(
        key_bits=32, data_bits=8 * 4096, version_bits=1, tid_bits=1,
        items_per_bucket=10, span=0, sgt=False, organization=NONE,
    )
    records = tuple(ItemRecord(item=i, value=i, version=0) for i in range(260))
    program = _program(NONE, 5, data=[Bucket(index=0, records=records)])
    assert 260 * 4096 > MAX_PAYLOAD_BYTES
    for make in (ReferenceCodec, CycleCodec):
        with pytest.raises(CodecError, match="frame limit"):
            make(wide).encode_cycle(program, 0)
    # Just under it, the spilled chunks join up to the reference's bytes.
    program = _program(NONE, 5, data=[Bucket(index=0, records=records[:250])])
    frames = ReferenceCodec(wide).encode_cycle(program, 0)
    assert CycleCodec(wide).encode_cycle(program, 0) == frames


def _header(profile):
    return ControlHeader(
        cycle=50, start_slot=0, control_slots=1, index_slots=0,
        organization=profile.organization, num_data_buckets=1,
        num_overflow_buckets=1, control=None,
    )


def _decode(codec, ftype, payload, cycle=50):
    frame = decode_frame(encode_frame(ftype, cycle, 1, payload))[0]
    if ftype == DATA:
        return codec.decode_data_bucket(frame, _header(codec.profile))
    return codec.decode_overflow_bucket(frame)


@settings(max_examples=300, deadline=None)
@given(wire_cases(), st.data())
def test_what_the_reference_refuses_to_decode_the_codec_refuses(case, data):
    """Truncated, over-long, bit-flipped: both ends of every verdict, and
    the same bucket when both accept."""
    profile, program = case
    frames = CycleCodec(profile).encode_cycle(program, 0)[1:]
    assume(frames)
    frame = decode_frame(data.draw(st.sampled_from(frames)))[0]
    payload = bytearray(frame.payload)
    damage = data.draw(st.sampled_from(["flip", "cut", "grow"]))
    if damage == "flip":
        bits = st.sets(st.integers(0, 8 * len(payload) - 1), min_size=1, max_size=4)
        for bit in data.draw(bits):
            payload[bit // 8] ^= 0x80 >> (bit % 8)
    elif damage == "cut":
        del payload[data.draw(st.integers(0, len(payload) - 1)) :]
    else:
        payload += data.draw(st.binary(min_size=1, max_size=4))
    payload = bytes(payload)
    try:
        expected = _decode(ReferenceCodec(profile), frame.type, payload)
    except CodecError:
        with pytest.raises(CodecError):
            _decode(CycleCodec(profile), frame.type, payload)
        return
    assert _decode(CycleCodec(profile), frame.type, payload) == expected


# -- (iv) the dict store: every record a miss -------------------------------------


def test_fresh_records_every_cycle_air_the_same_bytes():
    """The dict reference ``VersionStore`` builds its
    ``OldVersionRecord`` s anew each cycle; the columnar store keeps
    them.  Same values, same bytes -- from templates on one
    side, from a cut per record on the other."""
    requirements = BroadcastRequirements(needs_old_versions=True, organization="overflow")
    profile = WireProfile.from_params(ServerParameters(), requirements)
    columnar_codec, dict_codec = CycleCodec(profile), CycleCodec(profile)
    reference = ReferenceCodec(profile)
    cuts = {"columnar": 0, "dict": 0}

    def counted(codec, name):
        cut = codec._cut

        def counting(record, base, old):
            cuts[name] += 1
            return cut(record, base, old)

        codec._cut = counting

    counted(columnar_codec, "columnar")
    counted(dict_codec, "dict")
    aired = 0
    for columnar, dict_ref in _build_pair("overflow", incremental=True):
        frames = reference.encode_cycle(dict_ref, 0)
        assert dict_codec.encode_cycle(dict_ref, 0) == frames
        assert columnar_codec.encode_cycle(columnar, 0) == frames
        aired += sum(len(b.old_records) for b in dict_ref.overflow_buckets)
    assert aired
    # Every old version aired from the dict store was a miss; the
    # columnar store's were cut about once each.
    assert cuts["dict"] >= aired
    assert cuts["columnar"] < cuts["dict"] / 4


def test_a_miss_is_one_straight_line_packer():
    """Where nothing repeats (the dict store, a clustered program) the
    record-at-a-time path is all misses and must not be a step back.
    Counted, not timed (tier-1 holds no stopwatch; timed apart, a miss
    costs 0.9-1.0 of the reference pack): Python-level calls per record,
    which is what the field-wise path spent its time on."""
    records = tuple(
        OldVersionRecord(
            item=i, value=-i, version=30 + i % 20, valid_to=60 + i % 7,
            writer=TxnId(30 + i % 20, i % 40),
        )
        for i in range(1, 2001)
    )
    buckets = [
        Bucket(index=n, old_records=records[n : n + 10])
        for n in range(0, len(records), 10)
    ]

    def calls_per_record(make):
        codec, calls = make(RETAINED), 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            for bucket in buckets:
                codec._bucket_entry(bucket, with_records=False, with_old=True)
        finally:
            sys.setprofile(None)
        return calls / len(records)

    # The cut, the record's top stamp, and a helper per escaped age.
    assert calls_per_record(CycleCodec) <= 5 < 15 < calls_per_record(ReferenceCodec)


# -- (v) the listener's templates: a long-lived decoder is the reference ----------


#: Per case, a profile and the sections of the one bucket that varies:
#: (profile, records, old records).  Records are tried against templates
#: where they hold their positions, in the data buckets of the flat and
#: overflow organizations; the other two cases must simply parse.
_LISTENER_PROFILES = {
    "flat": (FLAT, True, False),
    "overflow data": (RETAINED, True, False),
    "clustered": (_profile(CLUSTERED, 2, 2, 3), True, True),
    "overflow chunk": (RETAINED, False, True),
}


def _aired(profile, with_records, records, old_records, base):
    """A one-bucket program airing ``records`` / ``old_records`` in the
    bucket the profile puts them in, a few cycles after ``base``."""
    cycle = base + 3
    bucket = Bucket(index=0, records=records, old_records=old_records)
    if with_records:
        return _program(profile.organization, cycle, data=[bucket])
    return _program(profile.organization, cycle, overflow=[bucket])


def _spans(reference, bucket, base, with_records, with_old):
    """``(first bit, bits)`` of every record of ``bucket``'s payload."""
    spans, pos = [], 64
    for present, rows in ((with_records, bucket.records), (with_old, bucket.old_records)):
        if present:
            pos += 16
            for record in rows:
                nbits = reference.pack(record, base)[1]
                spans.append((pos, nbits))
                pos += nbits
    return spans


def _flipped(raw, bits):
    frame = decode_frame(raw)[0]
    payload = bytearray(frame.payload)
    for bit in bits:
        payload[bit // 8] ^= 0x80 >> (bit % 8)
    return encode_frame(frame.type, frame.cycle, frame.slot, bytes(payload))


def _heard_templates(codec):
    # Only data buckets are remembered (an overflow chunk's program has
    # none, so its case draws no edges).
    heard = codec._heard_data
    if not heard or heard[0] is None:
        return []
    return [entry for entry in heard[0][3] if entry is not None]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_long_lived_decoder_equals_the_reference_across_template_edges(data):
    """One bucket whose kept records ride on while one more record moves
    its base -- onto the edges (``lo - 1``, ``lo``, ``hi - 1``, ``hi``)
    of the templates the decoder holds -- and payloads with bits flipped
    inside the span of a record the decoder would reuse: every one
    parses, or is refused, as the field-wise reference decides."""
    name = data.draw(st.sampled_from(sorted(_LISTENER_PROFILES)))
    profile, with_records, with_old = _LISTENER_PROFILES[name]
    kept = data.draw(st.lists(_records(old=not with_records), min_size=1, max_size=4))
    kept_old = (
        data.draw(st.lists(_records(old=True), max_size=3))
        if with_records and with_old
        else []
    )
    kept_top = max(map(_top, kept + kept_old))
    listener, reference = CycleCodec(profile), ReferenceCodec(profile)
    for step in range(data.draw(st.integers(2, 7))):
        edges = [
            edge
            for entry in _heard_templates(listener)
            for edge in (entry[4] - 1, entry[4], entry[5] - 1, entry[5])
            if kept_top <= edge < 2**32 - 8
        ]
        if step >= 2 and edges:
            base = data.draw(st.sampled_from(edges))
        else:
            base = data.draw(st.integers(kept_top, kept_top + 70))
        # The mover rides last, so the kept records keep their positions.
        if with_records:
            mover = ItemRecord(item=999, value=step, version=base)
            records, old_records = (*kept, mover), tuple(kept_old)
        else:
            mover = OldVersionRecord(item=999, value=step, version=base, valid_to=base)
            records, old_records = (), (*kept, mover)
        program = _aired(profile, with_records, records, old_records, base)
        frames = reference.encode_cycle(program, 0)
        if data.draw(st.booleans()):
            bucket = (program.data_buckets or program.overflow_buckets)[0]
            spans = _spans(reference, bucket, base, with_records, with_old)
            first, nbits = spans[data.draw(st.integers(0, len(kept) - 1))]
            bits = data.draw(
                st.sets(st.integers(first, first + nbits - 1), min_size=1, max_size=3)
            )
            frames = [frames[0], _flipped(frames[1], bits)]
        try:
            expected, _ = reference.decode_cycle(frames)
        except CodecError:
            with pytest.raises(CodecError):
                listener.decode_cycle(frames)
            continue
        assert programs_equal(listener.decode_cycle(frames)[0], expected)


def test_a_changed_bucket_reuses_its_unchanged_records():
    """Record *j* of a changed payload is last payload's record *j*, the
    very object, when its bits are that record's template under the new
    base.  A template is cut the first time its record is tried, carried
    while its record is matched, and cut again once the base leaves its
    interval -- each time only if the payload's key and value there are
    the record's."""
    profile = RETAINED  # 4-bit ages: inline while base - stamp < 15
    records = [
        ItemRecord(item=j + 1, value=-j, version=11 + j, writer=TxnId(11 + j, j),
                   has_old_versions=bool(j % 2))
        for j in range(8)
    ]
    listener, cuts = CycleCodec(profile), []
    cut = listener._cut

    def counting(record, base, old):
        cuts[-1] += 1
        return cut(record, base, old)

    listener._cut = counting
    heard = []
    for cycle, changed in ((20, None), (21, 3), (22, 5), (23, 3), (40, 0), (41, "all")):
        cuts.append(0)
        if changed == "all":  # every record one position on, as in an overflow chunk
            records = records[-1:] + records[:-1]
        elif changed is not None:
            records[changed] = ItemRecord(item=changed + 1, value=cycle, version=cycle - 1)
        program = _program(OVERFLOW_ORG, cycle, data=[Bucket(index=0, records=tuple(records))])
        decoded, _ = listener.decode_cycle(CycleCodec(profile).encode_cycle(program, 0))
        assert programs_equal(decoded, program)
        heard.append(decoded.data_buckets[0].records)
    reused = [
        [a is b for a, b in zip(before, after)] for before, after in zip(heard, heard[1:])
    ]
    # Every record but the changed one is the object heard the cycle before.
    assert reused[:4] == [[j != changed for j in range(8)] for changed in (3, 5, 3, 0)]
    assert reused[4] == [False] * 8
    # 20: all parsed.  21: all eight tried, seven cut (the changed value
    # is seen first).  22 and 23: only the record parsed the cycle before
    # is cut.  40: base 39 is past every interval (the newest stamp
    # before it is 22), so the seven unchanged are recut.  41: no key is
    # where it was, so nothing is cut.
    assert cuts == [0, 7, 1, 1, 7, 0]

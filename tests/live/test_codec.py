"""The wire codec: round-trip fidelity, framing errors, size agreement.

Three pillars:

* a Hypothesis round-trip property -- any program a profile can legally
  carry decodes bit-identically across all three multiversion
  organizations and every control-info variant (windows, graph diffs,
  SGT writer tags, age escapes);
* framing failure modes -- truncated and corrupted byte streams come
  back as the documented error types, never as garbage programs;
* size agreement -- the codec's field widths are exactly the analytic
  :class:`~repro.server.sizing.SizeModel` widths, pinned both at the
  profile level and by counting the bits of an encoded bucket.
"""

import struct
from math import ceil, log2

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
from repro.config import ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff, TxnId
from repro.live.codec import (
    CONTROL,
    DATA,
    HEADER_BYTES,
    HELLO,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    OVERFLOW,
    BitReader,
    BitWriter,
    CodecError,
    ControlHeader,
    CycleCodec,
    FrameCorrupt,
    FrameError,
    FrameStream,
    FrameTruncated,
    WireProfile,
    decode_frame,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
)
from repro.server.sizing import SizeModel
from tests.live.program_equality import programs_equal
from tests.live.reference_codec import reference_bucket_base

ORGS = (
    MultiversionOrganization.NONE,
    MultiversionOrganization.CLUSTERED,
    MultiversionOrganization.OVERFLOW,
)


# -- program strategies -------------------------------------------------------


def _txn_ids(cycle: int) -> st.SearchStrategy:
    # Large seq values force the all-ones age escape through tiny
    # tid_bits fields; the stamps and seqs at the ends of their ranges
    # (age 0, 1 and the whole cycle; the largest explicit seq) ride too.
    return st.builds(
        TxnId,
        cycle=st.sampled_from(sorted({0, max(cycle - 1, 0), cycle}))
        | st.integers(0, cycle),
        seq=st.sampled_from([0, 1, 2**31, 2**32 - 1]) | st.integers(0, 500),
    )


def _records(profile: WireProfile, cycle: int) -> st.SearchStrategy:
    multiversion = profile.organization is not MultiversionOrganization.NONE
    return st.builds(
        ItemRecord,
        item=st.integers(1, 300),
        value=st.integers(-(2**31), 2**31 - 1),
        version=st.integers(0, cycle),
        writer=st.none() | _txn_ids(cycle),
        has_old_versions=st.booleans() if multiversion else st.just(False),
    )


def _old_records(cycle: int) -> st.SearchStrategy:
    def build(item, value, version, extra, writer):
        return OldVersionRecord(
            item=item,
            value=value,
            version=version,
            valid_to=version + extra,
            writer=writer,
        )

    return st.builds(
        build,
        item=st.integers(1, 300),
        value=st.integers(-(2**31), 2**31 - 1),
        version=st.integers(0, cycle),
        extra=st.integers(0, 40),
        writer=st.none() | _txn_ids(cycle),
    )


@st.composite
def _reports(draw, profile: WireProfile, cycle: int):
    report_cycle = draw(st.integers(0, cycle))
    items = draw(st.frozensets(st.integers(1, 300), max_size=6))
    writers = None
    if profile.sgt and items:
        # A partial writer map: the wire carries an optional tag per item.
        tagged = draw(st.sets(st.sampled_from(sorted(items)), max_size=4))
        writers = {item: draw(_txn_ids(cycle)) for item in tagged} or None
    return report_from_updates(
        cycle=report_cycle,
        updated_items=items,
        first_writers=writers,
        items_per_bucket=profile.items_per_bucket,
    )


@st.composite
def _graph_diffs(draw, cycle: int):
    nodes = draw(st.frozensets(_txn_ids(cycle), max_size=4))
    edges = draw(st.frozensets(st.tuples(_txn_ids(cycle), _txn_ids(cycle)), max_size=4))
    return GraphDiff(cycle=draw(st.integers(0, cycle)), nodes=nodes, edges=edges)


@st.composite
def wire_profiles(draw):
    organization = draw(st.sampled_from(ORGS))
    return WireProfile(
        key_bits=32,
        data_bits=64,
        # Tiny fields exercise the explicit-age escape path.
        version_bits=draw(st.integers(1, 5)),
        tid_bits=draw(st.integers(1, 5)),
        items_per_bucket=draw(st.integers(1, 10)),
        span=0 if organization is MultiversionOrganization.NONE else draw(st.integers(1, 16)),
        sgt=draw(st.booleans()),
        organization=organization,
    )


@st.composite
def wire_programs(draw, profile: WireProfile):
    """Programs covering every layout the profile's codec owns."""
    organization = profile.organization
    cycle = draw(st.integers(1, 40))

    clustered = organization is MultiversionOrganization.CLUSTERED
    buckets = []
    for index in draw(st.lists(st.integers(0, 1000), max_size=3, unique=True)):
        buckets.append(
            Bucket(
                index=index,
                records=tuple(draw(st.lists(_records(profile, cycle), max_size=4))),
                old_records=(
                    tuple(draw(st.lists(_old_records(cycle), max_size=3)))
                    if clustered
                    else ()
                ),
            )
        )
    overflow_buckets = []
    if organization is MultiversionOrganization.OVERFLOW:
        for index in draw(st.lists(st.integers(0, 1000), max_size=2, unique=True)):
            overflow_buckets.append(
                Bucket(
                    index=index,
                    records=(),
                    old_records=tuple(
                        draw(st.lists(_old_records(cycle), max_size=3))
                    ),
                )
            )

    control = ControlInfo(
        cycle=draw(st.integers(0, cycle)),
        invalidation=draw(_reports(profile, cycle)),
        graph_diff=draw(st.none() | _graph_diffs(cycle)),
        window=tuple(draw(st.lists(_reports(profile, cycle), max_size=2))),
        size_units=draw(st.integers(0, 10**6)),
    )
    program = BroadcastProgram(
        cycle=cycle,
        control=control,
        data_buckets=buckets,
        overflow_buckets=overflow_buckets,
        control_slots=draw(st.integers(1, 3)),
        index_slots=draw(st.integers(0, 2)),
        organization=organization,
    )
    return program


@st.composite
def wire_cases(draw):
    """(profile, program) pairs covering every layout the codec owns."""
    profile = draw(wire_profiles())
    return profile, draw(wire_programs(profile))


# -- round trip ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(wire_cases(), st.integers(0, 2**40))
def test_cycle_round_trip_is_bit_identical(case, start_slot):
    profile, program = case
    encoder = CycleCodec(profile)
    frames = encoder.encode_cycle(program, start_slot)
    # Decode through the HELLO-serialized profile, like a real listener.
    decoder = CycleCodec(WireProfile.from_wire(profile.to_wire()))
    decoded, decoded_slot = decoder.decode_cycle(frames)
    assert decoded_slot == start_slot
    assert programs_equal(program, decoded)
    # Re-encoding the decoded program reproduces the exact wire bytes.
    assert decoder.encode_cycle(decoded, start_slot) == frames


@settings(max_examples=50, deadline=None)
@given(wire_cases())
def test_decoded_control_geometry_matches_program(case):
    profile, program = case
    codec = CycleCodec(profile)
    raw = codec.encode_control(program, 7)
    frame, consumed = decode_frame(raw)
    assert consumed == len(raw)
    header = codec.decode_control(frame)
    assert header.cycle == program.cycle
    assert header.start_slot == 7
    assert header.organization is program.organization
    assert header.num_data_buckets == len(program.data_buckets)
    assert header.num_overflow_buckets == len(program.overflow_buckets)
    assert header.total_slots == program.total_slots


def test_wire_profile_json_round_trip():
    profile = WireProfile(
        key_bits=32,
        data_bits=160,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=16,
        sgt=True,
        organization=MultiversionOrganization.OVERFLOW,
    )
    assert WireProfile.from_wire(profile.to_wire()) == profile


def test_wire_profile_rejects_malformed_blob():
    with pytest.raises(CodecError):
        WireProfile.from_wire({"key_bits": 32})
    blob = WireProfile(
        key_bits=32,
        data_bits=160,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=0,
        sgt=False,
        organization=MultiversionOrganization.NONE,
    ).to_wire()
    blob["organization"] = "no-such-layout"
    with pytest.raises(CodecError):
        WireProfile.from_wire(blob)


# -- framing failure modes ----------------------------------------------------


def test_frame_round_trip_and_json_payload():
    raw = encode_json_frame(HELLO, {"scheme": "sgt+cache", "n": 3})
    frame, consumed = decode_frame(raw)
    assert consumed == len(raw)
    assert frame.type == HELLO
    assert decode_json_payload(frame.payload) == {"scheme": "sgt+cache", "n": 3}
    with pytest.raises(CodecError):
        decode_json_payload(b"\xff\xfe not json")


def test_truncated_header_and_payload_raise_frame_truncated():
    raw = encode_frame(DATA, 3, 5, b"payload bytes")
    for cut in (0, 1, HEADER_BYTES - 1, HEADER_BYTES, len(raw) - 1):
        with pytest.raises(FrameTruncated):
            decode_frame(raw[:cut])


def test_corrupt_payload_raises_frame_corrupt_with_frame_attached():
    raw = bytearray(encode_frame(CONTROL, 9, 0, b"control segment"))
    raw[-1] ^= 0xFF
    with pytest.raises(FrameCorrupt) as excinfo:
        decode_frame(bytes(raw))
    assert excinfo.value.frame.cycle == 9
    assert excinfo.value.frame.type == CONTROL


def test_bad_magic_and_unknown_type_are_fatal_frame_errors():
    raw = bytearray(encode_frame(DATA, 1, 1, b"x"))
    raw[0] ^= 0xFF
    with pytest.raises(FrameError) as excinfo:
        decode_frame(bytes(raw))
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))

    raw = bytearray(encode_frame(DATA, 1, 1, b"x"))
    raw[2] = 0x7E  # not a registered frame type
    with pytest.raises(FrameError) as excinfo:
        decode_frame(bytes(raw))
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))


def test_frame_stream_reassembles_split_and_corrupt_frames():
    first = encode_frame(DATA, 2, 3, b"alpha")
    damaged = bytearray(encode_frame(DATA, 2, 4, b"beta"))
    damaged[-1] ^= 0xFF
    third = encode_frame(DATA, 2, 5, b"gamma")
    wire = first + bytes(damaged) + third

    stream = FrameStream()
    events = []
    # One byte at a time: the parser must hold partial frames across feeds.
    for i in range(len(wire)):
        events.extend(stream.feed(wire[i : i + 1]))
    assert len(events) == 3
    assert events[0].payload == b"alpha"
    assert isinstance(events[1], FrameCorrupt)
    assert events[1].frame.slot == 4
    assert events[2].payload == b"gamma"
    # The buffer drained completely.
    assert stream.feed(b"") == []


def test_frame_stream_releases_its_view_before_it_drops_what_it_parsed():
    """``feed`` copies payloads out of one ``memoryview`` of its buffer;
    a view still exported when the parsed prefix is deleted would make
    the ``bytearray`` refuse to resize (``BufferError``).  A frame split
    across three chunks, then a corrupt one whose exception (and the
    traceback that goes with it) the caller keeps."""
    first = encode_frame(DATA, 2, 3, b"alpha" * 40)
    damaged = bytearray(encode_frame(DATA, 2, 4, b"beta" * 10))
    damaged[-1] ^= 0xFF
    third = encode_frame(DATA, 2, 5, b"gamma")

    stream = FrameStream()
    assert stream.feed(first[:9]) == []
    assert stream.feed(first[9:120]) == []
    events = stream.feed(first[120:] + bytes(damaged) + third[:7])
    assert [type(event) for event in events] == [type(events[0]), FrameCorrupt]
    assert events[0].payload == b"alpha" * 40
    assert type(events[0].payload) is bytes
    assert events[1].frame.slot == 4
    assert events[1].frame.payload == bytes(damaged[HEADER_BYTES:])
    # Kept across feeds, traceback and all: the buffer still resizes.
    kept = events[1]
    assert kept.__traceback__ is not None
    assert [frame.payload for frame in stream.feed(third[7:])] == [b"gamma"]
    assert stream.feed(b"") == []
    # A fatal header error leaves no view behind either.
    with pytest.raises(FrameError):
        stream.feed(b"\0" * HEADER_BYTES)
    with pytest.raises(FrameError):
        stream.feed(b"more")


def test_hostile_length_field_is_fatal_instead_of_buffered():
    """A header may not promise more than MAX_PAYLOAD_BYTES: the stream
    would otherwise buffer whatever follows, waiting for 4 GiB."""
    hostile = struct.pack(
        ">2sBBIIII", MAGIC, DATA, 0, 1, 1, 0xFFFFFFFF, 0
    )
    with pytest.raises(FrameError) as excinfo:
        decode_frame(hostile)
    assert not isinstance(excinfo.value, (FrameTruncated, FrameCorrupt))

    stream = FrameStream()
    good = encode_frame(DATA, 1, 0, b"before")
    assert [f.payload for f in stream.feed(good + hostile[:-1])] == [b"before"]
    # The claim is refused the moment the header is complete; nothing
    # after it is ever buffered.
    with pytest.raises(FrameError):
        stream.feed(hostile[-1:])
    with pytest.raises(FrameError):
        stream.feed(b"\0" * 4096)

    # The limit itself is legal on both sides, one byte more on neither.
    largest = encode_frame(DATA, 1, 0, b"\0" * MAX_PAYLOAD_BYTES)
    assert len(FrameStream().feed(largest)) == 1
    with pytest.raises(CodecError):
        encode_frame(DATA, 1, 0, b"\0" * (MAX_PAYLOAD_BYTES + 1))


@settings(max_examples=50, deadline=None)
@given(wire_cases(), st.data())
def test_truncated_control_payload_is_a_clean_codec_error(case, data):
    profile, program = case
    codec = CycleCodec(profile)
    raw = codec.encode_control(program, 0)
    payload = raw[HEADER_BYTES:]
    if len(payload) < 2:
        return
    cut = data.draw(st.integers(0, len(payload) - 1))
    frame, _ = decode_frame(encode_frame(CONTROL, program.cycle, 0, payload[:cut]))
    with pytest.raises(CodecError):
        codec.decode_control(frame)


# -- canonical payloads ---------------------------------------------------------


def _payloads(codec: CycleCodec, program: BroadcastProgram, ftype: int):
    """The payloads of the ``ftype`` frames ``encode_cycle`` airs for
    ``program``, in air order."""
    frames = (decode_frame(raw)[0] for raw in codec.encode_cycle(program, 0))
    return [frame.payload for frame in frames if frame.type == ftype]


def _decode_payload(codec: CycleCodec, ftype: int, cycle: int, payload: bytes):
    """Decode one payload and re-encode what came out: ``(decoded,
    payload of the re-encoding)``."""
    frame, _ = decode_frame(encode_frame(ftype, cycle, 0, payload))
    organization = codec.profile.organization
    if ftype == CONTROL:
        header = codec.decode_control(frame)
        program = BroadcastProgram(
            cycle=cycle,
            control=header.control,
            data_buckets=[Bucket(index=0)] * header.num_data_buckets,
            overflow_buckets=[Bucket(index=0)] * header.num_overflow_buckets,
            control_slots=header.control_slots,
            index_slots=header.index_slots,
            organization=header.organization,
        )
        again = codec.encode_control(program, header.start_slot)
        return header, again[HEADER_BYTES:]
    program = BroadcastProgram(
        cycle=cycle,
        control=ControlInfo(cycle=cycle, invalidation=report_from_updates(cycle, frozenset())),
        data_buckets=[],
        organization=organization,
    )
    if ftype == DATA:
        header = ControlHeader(
            cycle=cycle, start_slot=0, control_slots=1, index_slots=0,
            organization=organization, num_data_buckets=1,
            num_overflow_buckets=0, control=program.control,
        )
        bucket = codec.decode_data_bucket(frame, header)
        program.data_buckets.append(bucket)
        return bucket, _payloads(codec, program, DATA)[0]
    bucket = codec.decode_overflow_bucket(frame)
    program.overflow_buckets.append(bucket)
    return bucket, _payloads(codec, program, OVERFLOW)[0]


@settings(max_examples=300, deadline=None)
@given(wire_cases(), st.data())
def test_every_accepted_payload_re_encodes_to_itself(case, data):
    """One bucket, one payload: whatever a decoder accepts is exactly
    what the encoder would have written (the reuse rule compares bytes,
    so two spellings of one bucket may not both be legal)."""
    profile, program = case
    codec = CycleCodec(profile)
    raw = data.draw(st.sampled_from(codec.encode_cycle(program, 5)))
    frame, _ = decode_frame(raw)
    payload = frame.payload
    decoded, again = _decode_payload(codec, frame.type, frame.cycle, payload)
    assert again == payload

    # Damage the tail: flip some of the last 64 bits, append some bytes.
    tail = min(64, 8 * len(payload))
    flips = data.draw(st.sets(st.integers(0, tail - 1), max_size=6))
    mangled = bytearray(payload)
    for bit in flips:
        mangled[len(payload) - 1 - bit // 8] ^= 1 << (bit % 8)
    mangled += data.draw(st.binary(max_size=3))
    mangled = bytes(mangled)
    try:
        other, again = _decode_payload(codec, frame.type, frame.cycle, mangled)
    except CodecError:
        return
    assert again == mangled
    if mangled != payload:
        assert other != decoded


def test_second_spellings_of_a_payload_are_rejected():
    profile = WireProfile.from_params(ServerParameters(), BroadcastRequirements())
    codec = CycleCodec(profile)

    def data_frame(payload: bytes, cycle: int = 9):
        return decode_frame(encode_frame(DATA, cycle, 1, payload))[0]

    header = ControlHeader(
        cycle=9, start_slot=0, control_slots=1, index_slots=0,
        organization=MultiversionOrganization.NONE, num_data_buckets=1,
        num_overflow_buckets=0, control=None,
    )
    empty = struct.pack(">IIH", 7, 0, 0)  # index 7, base 0, no records
    assert codec.decode_data_bucket(data_frame(empty), header) == Bucket(index=7)
    # The old decoder stopped reading after the last field and accepted
    # anything behind it.
    with pytest.raises(CodecError, match="trailing"):
        codec.decode_data_bucket(data_frame(empty + b"\xff" * 50), header)
    with pytest.raises(CodecError, match="trailing"):
        codec.decode_data_bucket(data_frame(empty + b"\0"), header)

    record = ItemRecord(item=3, value=-4, version=6, writer=TxnId(6, 2))
    program = BroadcastProgram(
        cycle=9,
        control=ControlInfo(cycle=9, invalidation=report_from_updates(9, frozenset())),
        data_buckets=[Bucket(index=0, records=(record,))],
    )
    [payload] = _payloads(codec, program, DATA)
    assert codec.decode_data_bucket(data_frame(payload), header).records == (record,)
    # That payload is 80 + 200 bits and ends on a byte boundary; without
    # the writer tag it is 275 bits, so its last byte has 5 padding bits.
    [plain] = _payloads(
        codec,
        BroadcastProgram(
            cycle=9,
            control=program.control,
            data_buckets=[
                Bucket(index=0, records=(ItemRecord(item=3, value=-4, version=6),))
            ],
        ),
        DATA,
    )
    assert codec.decode_data_bucket(data_frame(plain), header).records[0].writer is None
    dirty = plain[:-1] + bytes([plain[-1] | 0x01])
    with pytest.raises(CodecError, match="padding"):
        codec.decode_data_bucket(data_frame(dirty), header)

    # A base after the cycle the frame aired in -- straight off the wire
    # and again when the same bytes were remembered from a later cycle.
    with pytest.raises(CodecError, match="later than"):
        CycleCodec(profile).decode_data_bucket(data_frame(payload, cycle=5), header)
    control = decode_frame(codec.encode_control(program, 0))[0]
    codec.decode_control(control)
    assert codec.decode_data_bucket(data_frame(payload), header).records == (record,)
    with pytest.raises(CodecError, match="later than"):
        codec.decode_data_bucket(data_frame(payload, cycle=5), header)

    # One stamp, one spelling.  Hand-packed: base 6 (the writer's cycle),
    # one record whose version age is spelled out in the 1-bit field's
    # escape form ("1" + 32 bits; only age 0 fits the field itself).
    def spelled(age: int) -> bytes:
        w = BitWriter()
        for value, bits in (
            (0, 32), (6, 32), (1, 16),  # index, base, one record
            (3, 32), (0, 160),  # item, value
            (1, 1), (1, 1), (age, 32),  # version: present, escaped age
            (1, 1), (0, 1), (2, 4),  # writer: present, age 0, seq 2
        ):
            w.write(value, bits)
        return w.getvalue()

    decoded = codec.decode_data_bucket(data_frame(spelled(2)), header)
    assert decoded.records == (
        ItemRecord(item=3, value=0, version=4, writer=TxnId(6, 2)),
    )
    for age, complaint in (
        (0, "escaped although it fits"),  # the short field would do
        (6, "version 0 rides as its flag bit"),
        (7, "older than cycle 0"),
    ):
        with pytest.raises(CodecError, match=complaint):
            codec.decode_data_bucket(data_frame(spelled(age)), header)

    # CONTROL payloads end where their last field ends, too.
    with pytest.raises(CodecError, match="trailing"):
        codec.decode_control(
            decode_frame(encode_frame(CONTROL, 9, 0, control.payload + b"\0"))[0]
        )


def test_layout_violations_raise_codec_errors():
    flat = WireProfile(
        key_bits=32,
        data_bits=32,
        version_bits=4,
        tid_bits=4,
        items_per_bucket=10,
        span=0,
        sgt=False,
        organization=MultiversionOrganization.NONE,
    )
    codec = CycleCodec(flat)
    pointer = ItemRecord(item=1, value=0, version=0, writer=None, has_old_versions=True)
    with pytest.raises(CodecError):
        codec._cut(pointer, base=0, old=False)

    # Old versions in a data bucket only exist under CLUSTERED.
    old = OldVersionRecord(item=1, value=0, version=1, valid_to=2, writer=None)
    program = BroadcastProgram(
        cycle=3,
        control=ControlInfo(cycle=3, invalidation=report_from_updates(3, frozenset())),
        data_buckets=[Bucket(index=0, records=(), old_records=(old,))],
        overflow_buckets=[],
        control_slots=1,
        index_slots=0,
        organization=MultiversionOrganization.NONE,
    )
    with pytest.raises(CodecError, match="clustered"):
        codec.encode_cycle(program, 0)

    # A value whose zigzag form overflows the data field.
    with pytest.raises(CodecError):
        codec._cut(ItemRecord(item=1, value=2**40, version=0), base=0, old=False)

    # Ages count back from the bucket's largest stamp, never forward...
    with pytest.raises(CodecError):
        codec._cut(ItemRecord(item=1, value=0, version=9), base=3, old=False)
    # ...and that stamp may not lie after the cycle the bucket airs in.
    stamped = ItemRecord(item=1, value=0, version=9, writer=None)
    program.data_buckets[0] = Bucket(index=0, records=(stamped,))
    with pytest.raises(CodecError):
        codec.encode_cycle(program, 0)

    # Overflow buckets hold old versions only.
    overflow = CycleCodec(
        WireProfile.from_wire(
            {**flat.to_wire(), "organization": "overflow", "span": 4}
        )
    )
    program.data_buckets.clear()
    program.overflow_buckets.append(Bucket(index=0, records=(stamped,)))
    with pytest.raises(CodecError, match="old versions only"):
        overflow.encode_cycle(program, 0)


def test_bit_writer_reader_round_trip_and_bounds():
    w = BitWriter()
    values = [(0, 1), (1, 1), (5, 3), (2**31 - 1, 32), (0, 7), (123456, 20)]
    # Enough to cross several accumulator flushes and reader refills.
    values += [(i * 0x9E3779B97F4A7C15 % 2**61, 61) for i in range(60)]
    values += [(2**700 - 3, 700), (1, 1)]
    for value, bits in values:
        w.write(value, bits)
    r = BitReader(w.getvalue())
    for value, bits in values:
        assert r.read(bits) == value
    with pytest.raises(CodecError):
        r.read(64)  # past the end
    with pytest.raises(CodecError):
        BitWriter().write(8, 3)  # does not fit
    with pytest.raises(CodecError):
        BitWriter().write(-1, 3)


def test_bit_writer_checks_every_width():
    """The old packer skipped its range check from 64 bits up, so an
    oversized start slot corrupted a CONTROL frame instead of raising."""
    for bits in (63, 64, 65, 128):
        w = BitWriter()
        w.write(2**bits - 1, bits)
        assert w.getvalue() == b"\xff" * (bits // 8) + (
            bytes([0xFF << (8 - bits % 8) & 0xFF]) if bits % 8 else b""
        )
        with pytest.raises(CodecError):
            BitWriter().write(2**bits + 5, bits)
    program = BroadcastProgram(
        cycle=3,
        control=ControlInfo(cycle=3, invalidation=report_from_updates(3, frozenset())),
        data_buckets=[],
    )
    profile = WireProfile.from_params(ServerParameters(), BroadcastRequirements())
    with pytest.raises(CodecError):
        CycleCodec(profile).encode_control(program, 2**64 + 5)


# -- size agreement with the analytic model -----------------------------------


def test_profile_widths_match_size_model():
    params = ServerParameters()
    model = SizeModel(params)
    requirements = BroadcastRequirements(
        needs_old_versions=True, organization="overflow", needs_sgt=True
    )
    profile = WireProfile.from_params(params, requirements)
    assert profile.key_bits == params.key_size * model.bits_per_unit
    assert profile.data_bits == params.data_size * model.bits_per_unit
    assert profile.version_bits == ceil(model.version_bits(params.retention))
    assert profile.tid_bits == ceil(model.tid_bits())
    assert profile.span == params.retention
    assert profile.organization is MultiversionOrganization.OVERFLOW

    # An invalidation-only scheme airs no old versions: span 0 collapses
    # the version field to the model's log2(max(2, 0)) = 1-bit floor.
    flat = WireProfile.from_params(params, BroadcastRequirements())
    assert flat.span == 0
    assert flat.version_bits == ceil(model.version_bits(0)) == 1
    assert flat.organization is MultiversionOrganization.NONE


def _expected_record_bits(profile: WireProfile, record: ItemRecord, base: int) -> int:
    bits = profile.key_bits + profile.data_bits
    bits += 1  # version-zero flag
    if record.version:
        age = base - record.version
        bits += profile.version_bits
        if age >= (1 << profile.version_bits) - 1:
            bits += 32  # explicit-age escape
    bits += 1  # writer-present flag
    if record.writer is not None:
        for value, width in (
            (base - record.writer.cycle, profile.version_bits),
            (record.writer.seq, profile.tid_bits),
        ):
            bits += width
            if value >= (1 << width) - 1:
                bits += 32
    if profile.organization is not MultiversionOrganization.NONE:
        bits += 1  # has-old pointer bit
    return bits


@settings(max_examples=100, deadline=None)
@given(wire_cases())
def test_measured_bucket_bits_equal_model_field_sums(case):
    """The aired DATA payloads measure exactly the SizeModel widths, bit
    for bit."""
    profile, program = case
    if not program.data_buckets:
        return
    measured = 8 * sum(map(len, _payloads(CycleCodec(profile), program, DATA)))
    clustered = profile.organization is MultiversionOrganization.CLUSTERED
    expected = 0
    for bucket in program.data_buckets:
        # Ages count back from the bucket's own largest stamp, which
        # rides once per payload: never wider than the cycle-relative age.
        base = reference_bucket_base(bucket)
        bits = 32 + 32 + 16  # bucket index + base + record count
        for record in bucket.records:
            bits += _expected_record_bits(profile, record, base)
        if clustered:
            bits += 16
            for old in bucket.old_records:
                # An old record is an item record plus a validity age,
                # minus the pointer bit.
                bits += _expected_record_bits(
                    profile,
                    ItemRecord(
                        item=old.item,
                        value=old.value,
                        version=old.version,
                        writer=old.writer,
                        has_old_versions=False,
                    ),
                    base,
                ) - 1
                span = old.valid_to - old.version
                bits += profile.version_bits
                if span >= (1 << profile.version_bits) - 1:
                    bits += 32
        expected += 8 * ceil(bits / 8)  # each payload pads to a byte
    assert measured == expected


def test_payload_bits_track_figure7_growth():
    """More updates -> a larger control segment, data segment unchanged
    (the invalidation-only row of Figure 7)."""
    params = ServerParameters()
    profile = WireProfile.from_params(params, BroadcastRequirements())
    codec = CycleCodec(profile)

    def program_with(updates: int) -> BroadcastProgram:
        records = tuple(
            ItemRecord(item=i, value=i, version=0, writer=None)
            for i in range(1, params.items_per_bucket + 1)
        )
        return BroadcastProgram(
            cycle=5,
            control=ControlInfo(
                cycle=5,
                invalidation=report_from_updates(
                    5,
                    frozenset(range(1, updates + 1)),
                    items_per_bucket=params.items_per_bucket,
                ),
            ),
            data_buckets=[Bucket(index=0, records=records)],
            overflow_buckets=[],
            control_slots=1,
            index_slots=0,
            organization=MultiversionOrganization.NONE,
        )

    def bits(updates: int, ftype: int) -> int:
        payloads = _payloads(codec, program_with(updates), ftype)
        return 8 * sum(map(len, payloads))

    assert bits(50, CONTROL) - bits(5, CONTROL) == 45 * profile.key_bits
    assert bits(50, DATA) == bits(5, DATA)
    assert bits(5, OVERFLOW) == bits(50, OVERFLOW) == 0

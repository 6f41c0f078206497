"""A listener parses what its client reads.

Item positions are fixed in the flat and overflow organizations, so once
a listener has assembled one program it trusts that layout: a DATA
payload whose bytes it has not heard at that offset is held raw
(``CycleCodec.hear_data``) and parsed the first time a lookup misses on
one of its items (``BroadcastProgram.record_of``).  A payload nobody
reads is never parsed, and so can lie to nobody:

* Hypothesis read schedules -- over built flat and overflow broadcasts,
  SGT on and off, and over segments that repeat items within and across
  buckets -- read before the next cycle's frames arrive, after them, or
  never; every lookup equals the eagerly decoded program's, and only
  payloads a read named are parsed;
* a lazy listener ends a session -- lossless or with lost data slots,
  which reuse the previous cycle's entry at their offset -- with the
  registry of one that parses every payload, bucket-granularity
  invalidation and the overflow organization included;
* a CRC-valid payload with bad bits ends a session with the clean
  stream's registry when no read names it, and in ``CodecError`` when
  one does;
* a changed bucket that names other items than the layout is a
  ``CodecError`` when read;
* held payloads stay as many as the CONTROL frame announced buckets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.config import ModelParameters
from repro.core.control import ControlInfo, report_from_updates
from repro.core.invalidation import Granularity, InvalidationOnly
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.codec import (
    DATA,
    END,
    HELLO,
    HEADER_BYTES,
    OVERFLOW,
    CodecError,
    CycleCodec,
    FrameStream,
    HeldPayload,
    WireProfile,
    decode_frame,
    encode_frame,
    encode_json_frame,
)
from repro.live.server import LiveBroadcastServer
from tests.live.test_codec_reuse import (
    _LISTENER,
    _built_programs,
    _liars,
    _replaced,
)
from tests.live.test_misaddressed_frames import (  # noqa: F401 - fixtures
    _damaged,
    _listen,
    _with,
    clean,
    stream,
)

FAMILIES = [(None, False), ("overflow", False), (None, True), ("overflow", True)]
FAMILY_IDS = ["flat", "overflow", "flat+sgt", "overflow+sgt"]
CYCLES = 14


@pytest.fixture(scope="module")
def broadcasts():
    """Family -> ``(profile, frames per cycle, eager programs)``, built on
    first use and dropped with the module."""
    built = {}

    def get(organization, sgt):
        if (organization, sgt) not in built:
            built[organization, sgt] = _broadcast(organization, sgt)
        return built[organization, sgt]

    return get


def _broadcast(organization, sgt):
    """``(profile, frames per cycle, eager programs)`` of one built run."""
    params, requirements, records = _built_programs(organization, sgt, cycles=CYCLES)
    profile = WireProfile.from_params(params.server, requirements)
    encoder = CycleCodec(profile)
    frames = [encoder.encode_cycle(r.program, int(r.start)) for r in records]
    eager = [CycleCodec(profile).decode_cycle(raw)[0] for raw in frames]
    return profile, frames, eager


def _hear(listener: CycleCodec, raw_frames) -> BroadcastProgram:
    """One cycle as ``LiveClient`` hears it, then assembled."""
    frames = [decode_frame(raw)[0] for raw in raw_frames]
    header = listener.decode_control(frames[0])
    data = [listener.hear_data(f, header) for f in frames if f.type == DATA]
    overflow = [
        listener.decode_overflow_bucket(f) for f in frames if f.type == OVERFLOW
    ]
    return listener.assemble(header, data, overflow)


def _counting(listener: CycleCodec) -> list:
    """The payloads ``listener`` parses from now on, in order."""
    parsed: list = []
    decode = listener.decode_data_bucket

    def decode_data_bucket(frame, header):
        parsed.append(frame.payload)
        return decode(frame, header)

    listener.decode_data_bucket = decode_data_bucket
    return parsed


def _payload(raw_frames, offset: int) -> bytes:
    """The payload of data bucket ``offset`` (one CONTROL frame first)."""
    return raw_frames[1 + offset][HEADER_BYTES:]


def _read_schedule(data, cycles, items):
    """Per cycle, ``(item, when, after)`` reads: ``when`` 0 reads as soon
    as the cycle is assembled, 1 after the next cycle's frames arrive."""
    read = st.tuples(
        st.sampled_from(items), st.integers(0, 1), st.integers(0, 200)
    )
    return [data.draw(st.lists(read, max_size=6)) for _ in range(cycles)]


def _run_schedule(listener, cycles, eager, schedule):
    """Hear ``cycles`` under ``schedule``, checking every lookup against
    ``eager``; returns ``(payloads parsed, payloads named, held)``."""
    parsed, named, due, held = None, set(), [], 0
    for index, raw in enumerate(cycles):
        program, reference = _hear(listener, raw), eager[index]
        if parsed is None:
            # The first program has no layout to trust: parsed whole.
            assert not any(type(b) is HeldPayload for b in program.data_buckets)
            parsed = _counting(listener)
        held += sum(type(b) is HeldPayload for b in program.data_buckets)
        assert program.total_slots == reference.total_slots
        assert program.items == reference.items
        reads = [(program, reference, raw, read) for read in schedule[index]]
        for args in due + [r for r in reads if r[3][1] == 0]:
            _look_up(*args, named)
        due = [r for r in reads if r[3][1] == 1]
    for args in due:
        _look_up(*args, named)
    return parsed, named, held


def _look_up(program, reference, raw, read, named):
    item, _when, after = read
    for offset in reference._item_offsets[item]:
        named.add(_payload(raw, offset))
    assert program.record_of(item) == reference.record_of(item)
    assert program.next_slot_of(item, after) == reference.next_slot_of(item, after)
    assert program.slots_of(item) == reference.slots_of(item)
    assert program.page_of(item) == reference.page_of(item)


@pytest.mark.parametrize("organization, sgt", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lookups_equal_the_eager_program_and_only_named_payloads_parse(
    broadcasts, organization, sgt, data
):
    profile, cycles, eager = broadcasts(organization, sgt)
    schedule = _read_schedule(data, len(cycles), eager[0].items)
    listener = CycleCodec(profile)
    parsed, named, held = _run_schedule(listener, cycles, eager, schedule)
    assert held > len(cycles)  # changed buckets were held, not parsed
    assert set(parsed) <= named
    # A payload is parsed once, however many programs it stands in.
    assert len(parsed) == len(set(parsed))


@st.composite
def _repeating_segments(draw):
    """Data segments over six items, repeated within and across buckets:
    each cycle keeps some buckets (the same objects) and re-values the
    others in place, so that item positions never move."""

    def records(cycle, items):
        return tuple(
            ItemRecord(item, draw(st.integers(-50, 50)), draw(st.integers(0, cycle)))
            for item in items
        )

    items = st.lists(st.integers(1, 6), min_size=1, max_size=4)
    segment = [
        Bucket(index=i, records=records(1, draw(items)))
        for i in range(draw(st.integers(1, 4)))
    ]
    segments = [segment]
    for cycle in range(2, draw(st.integers(3, 7)) + 1):
        segment = [
            bucket
            if draw(st.booleans())
            else Bucket(index=bucket.index, records=records(cycle, bucket.items))
            for bucket in segment
        ]
        segments.append(segment)
    return segments


@settings(max_examples=150, deadline=None)
@given(_repeating_segments(), st.data())
def test_an_item_aired_at_several_offsets_reads_from_its_last(segments, data):
    """The scan keeps an item's record from its last offset; a held
    payload there is parsed by a read, one at an earlier offset is not."""
    encoder = CycleCodec(_LISTENER)
    cycles, eager = [], []
    for cycle, segment in enumerate(segments, start=1):
        program = BroadcastProgram(
            cycle=cycle,
            control=ControlInfo(
                cycle=cycle, invalidation=report_from_updates(cycle, frozenset())
            ),
            data_buckets=segment,
        )
        cycles.append(encoder.encode_cycle(program, 0))
        eager.append(CycleCodec(_LISTENER).decode_cycle(cycles[-1])[0])
    items = sorted({r.item for bucket in segments[0] for r in bucket.records})
    schedule = _read_schedule(data, len(cycles), items)
    listener = CycleCodec(_LISTENER)
    parsed, named, _held = _run_schedule(listener, cycles, eager, schedule)
    assert set(parsed) <= named


# -- whole sessions: lazy against eager --------------------------------------------


def _session_stream(label, cycles=60):
    """``(hello, frames, end)`` of one offline-encoded ``label`` broadcast."""
    params = ModelParameters().with_sim(
        num_cycles=cycles, warmup_cycles=5, num_clients=2, seed=23
    )
    server = LiveBroadcastServer(
        params, scheme_factory(label)().requirements(), scheme_label=label
    )
    frames, end_time = [], 0.0
    for record in server._loop.cycles():
        frames += server.codec.encode_cycle(record.program, int(record.start))
        end_time = record.start + record.program.total_slots
    end = encode_json_frame(
        END,
        {"end_time": end_time, "cycles_completed": server.backend.cycles_completed},
    )
    return encode_json_frame(HELLO, server._hello_payload()), frames, end


def _session(stream, scheme, eager=False):
    """A listener of ``scheme`` over ``stream``; an ``eager`` one parses
    every DATA payload on arrival."""
    hello, frames, end = stream
    with pytest.MonkeyPatch.context() as patch:
        if eager:
            patch.setattr(
                CycleCodec,
                "hear_data",
                lambda codec, frame, header: codec.decode_data_bucket(frame, header),
            )
        client = LiveClient("127.0.0.1", 0, scheme=scheme, client_id=1)
        feed = FrameStream()
        for raw in (hello, *frames, end):
            for event in feed.feed(raw):
                client._on_event(event)
        return client._finish()


def _lossy(frames, every):
    """Every ``every``-th DATA frame after the first cycle dropped."""
    kept, seen = [], 0
    for raw in frames:
        frame = decode_frame(raw)[0]
        if frame.type == DATA and frame.cycle > 1:
            seen += 1
            if seen % every == 0:
                continue
        kept.append(raw)
    return kept


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lost-slots"])
@pytest.mark.parametrize(
    "label, make",
    [
        ("inval+cache", lambda: InvalidationOnly(True, Granularity.BUCKET)),
        ("multiversion+cache", lambda: scheme_factory("multiversion+cache")()),
        ("sgt+cache", lambda: scheme_factory("sgt+cache")()),
    ],
    ids=["inval-bucket+cache", "multiversion+cache", "sgt+cache"],
)
def test_a_lazy_listener_ends_with_the_eager_listeners_registry(label, make, lossy):
    hello, frames, end = _session_stream(label)
    stream = (hello, _lossy(frames, 23) if lossy else frames, end)
    lazy = _session(stream, make())
    eager = _session(stream, make(), eager=True)
    assert lazy.metrics.snapshot() == eager.metrics.snapshot()
    assert (lazy.cycles_heard, lazy.cycles_missed, lazy.end_time) == (
        eager.cycles_heard,
        eager.cycles_missed,
        eager.end_time,
    )
    assert lazy.buckets_heard == eager.buckets_heard
    assert lazy.buckets_parsed < lazy.buckets_heard // 3
    if lossy:
        assert lazy.metrics.snapshot().get("fault.slots_lost.count")


# -- a lie nobody reads, and one somebody does -----------------------------------


def _reads_and_changes(stream, monkeypatch):
    """``(reads, changed)`` of the clean listen-inval stream: the
    ``(cycle, data offset)`` pairs a lookup named, and those whose
    payload differs from the cycle before's."""
    hello, cycles, end = stream
    reads = set()
    record_of = BroadcastProgram.record_of

    def reading(program, item):
        reads.add((program.cycle, program.page_of(item)))
        return record_of(program, item)

    with monkeypatch.context() as patch:
        patch.setattr(BroadcastProgram, "record_of", reading)
        _listen(hello, _with(cycles, None, ()), end)
    changed = set()
    for cycle in sorted(cycles)[2:-2]:
        now, before = cycles[cycle][1:], cycles[cycle - 1][1:]
        changed |= {
            (cycle, offset)
            for offset, (a, b) in enumerate(zip(now, before))
            if a[HEADER_BYTES:] != b[HEADER_BYTES:]
        }
    return reads, changed


def _lying(raw):
    """The DATA frame with a base far past any cycle, CRC fixed up."""
    frame = decode_frame(raw)[0]
    payload = bytearray(frame.payload)
    payload[4:8] = b"\xff\xff\xff\xff"
    return encode_frame(frame.type, frame.cycle, frame.slot, bytes(payload))


def _with_lie(cycles, cycle, offset):
    lied = dict(cycles)
    frames = list(cycles[cycle])
    frames[1 + offset] = _lying(frames[1 + offset])
    lied[cycle] = frames
    return _with(lied, None, ())


def test_a_lying_payload_nobody_reads_is_never_parsed(stream, clean, monkeypatch):
    hello, cycles, end = stream
    reads, changed = _reads_and_changes(stream, monkeypatch)
    unread = sorted(changed - reads)
    assert len(unread) > 100  # most changed buckets go unread
    for cycle, offset in random.Random(3).sample(unread, 3):
        result = _listen(hello, _with_lie(cycles, cycle, offset), end)
        assert result.metrics.snapshot() == clean.metrics.snapshot()
        assert (result.cycles_heard, result.cycles_missed) == (
            clean.cycles_heard,
            0,
        )
        assert result.buckets_parsed == clean.buckets_parsed


def test_a_lying_payload_a_read_names_ends_the_session(stream, monkeypatch):
    hello, cycles, end = stream
    reads, changed = _reads_and_changes(stream, monkeypatch)
    named = sorted(changed & reads)
    assert named
    for cycle, offset in random.Random(5).sample(named, 3):
        with pytest.raises(CodecError) as raised:
            _listen(hello, _with_lie(cycles, cycle, offset), end)
        assert type(raised.value) is CodecError
        assert "later than cycle" in str(raised.value)


def test_measured_tuning_parses_a_fraction_of_what_is_heard(clean):
    assert clean.buckets_heard == 120 * 100
    assert 100 < clean.buckets_parsed < clean.buckets_heard // 5


def test_a_data_frame_whose_control_never_decodes_is_never_parsed(stream):
    """Cycle 11's CONTROL fails its CRC, and a garbage DATA frame of that
    cycle arrives before it: the cycle is missed, nothing is parsed."""
    hello, cycles, end = stream
    control, *data = cycles[11]
    garbage = encode_frame(DATA, 11, decode_frame(data[0])[0].slot, b"\x00" * 3)
    missed = dict(cycles)
    missed[11] = [_damaged(control), *data]
    expected = _listen(hello, _with(missed, None, ()), end)
    missed[11] = [garbage, _damaged(control), *data]
    result = _listen(hello, _with(missed, None, ()), end)
    assert (result.cycles_heard, result.cycles_missed) == (119, 1)
    assert result.metrics.snapshot() == expected.metrics.snapshot()
    assert result.buckets_parsed == expected.buckets_parsed


# -- the layout-trust contract ---------------------------------------------------


@pytest.mark.parametrize("liar", ["swapped records", "one record fewer",
                                  "one record more"])
def test_a_held_bucket_naming_other_items_is_a_codec_error_when_read(liar):
    params, requirements, records = _built_programs(None, False, cycles=12)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    programs = [record.program for record in records]
    lying = dict(_liars(programs[5]))[liar]
    sequence = [*programs[:5], _replaced(programs[5], programs[5].cycle, lying, [])]
    for program in sequence:
        heard = _hear(listener, encoder.encode_cycle(program, 0))
    truth = programs[4].data_buckets
    assert type(heard.data_buckets[3]) is HeldPayload
    # Buckets that kept their items read as usual...
    for bucket in (lying[0], lying[9]):
        for record in bucket.records:
            assert heard.record_of(record.item) == record
    # ...and one the layout no longer describes refuses to be read.
    with pytest.raises(CodecError, match="other items than the layout"):
        heard.record_of(truth[3].records[1].item)


def test_held_payloads_stay_as_many_as_the_control_announced():
    params, requirements, records = _built_programs("overflow", False)
    profile = WireProfile.from_params(params.server, requirements)
    encoder, listener = CycleCodec(profile), CycleCodec(profile)
    for record in records[:-1]:
        _hear(listener, encoder.encode_cycle(record.program, 0))
    program = records[-1].program
    frames = [decode_frame(raw)[0] for raw in encoder.encode_cycle(program, 0)]
    header = listener.decode_control(frames[0])
    sizes = (header.num_data_buckets, header.num_data_buckets)

    def memory():
        return (len(listener._heard_data), len(listener._held_data))

    rng = random.Random(5)
    for frame in frames[1 : 1 + header.num_data_buckets]:
        offset = frame.slot - header.control_slots
        for slot in [frame.slot] * 5 + [rng.randrange(2**32) for _ in range(10)]:
            # Any slot and any changed payload: held only where announced,
            # one per offset, the latest.
            payload = bytearray(frame.payload)
            payload[:4] = rng.randrange(2**32).to_bytes(4, "big")
            moved = decode_frame(
                encode_frame(DATA, frame.cycle, slot, bytes(payload))
            )[0]
            heard = listener.hear_data(moved, header)
            if slot == frame.slot:
                assert type(heard) is HeldPayload
                assert listener._held_data[offset] is heard
                assert heard.parse().records == program.data_buckets[offset].records
            else:
                assert type(heard) is Bucket
            assert memory() == sizes
    held = [entry for entry in listener._held_data if entry is not None]
    assert len(held) == header.num_data_buckets

"""A listener drops frames addressed where they cannot belong.

A well-formed frame of a cycle the listener has finished -- a CONTROL
segment replayed by a relay, say -- used to reopen that cycle: the
codec's memory was re-addressed to it, the cycle was heard twice and
the one after it was signalled missed, with no error anywhere.  Nor
may a DATA frame at a slot its CONTROL did not announce count toward
the cycle's completion.  Such frames are dropped, so the listener's
registry is the clean stream's; under a client-side fault pipeline
(the exact lane, which demands a clean transport) they are a
``FrameError``.

The stream is the broadcast of the benchmark's ``listen-inval``
workload at seed 11, encoded offline exactly as the server airs it.
"""

import pytest

from repro.config import ModelParameters
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.codec import (
    CONTROL,
    DATA,
    END,
    HEADER_BYTES,
    HELLO,
    FrameCorrupt,
    FrameError,
    FrameStream,
    decode_frame,
    encode_frame,
    encode_json_frame,
)
from repro.live.server import LiveBroadcastServer

LABEL = "inval+cache"
CYCLES = 120
REPLAYED, AFTER = 10, 11


def offline_stream(label=LABEL):
    """``(hello, {cycle: frames}, end)``: one listener's byte stream of
    the broadcast a ``label`` audience asks for."""
    params = ModelParameters().with_sim(
        num_cycles=CYCLES, warmup_cycles=5, num_clients=2, seed=11
    )
    server = LiveBroadcastServer(
        params, scheme_factory(label)().requirements(), scheme_label=label
    )
    cycles = {}
    end_time = 0.0
    for record in server._loop.cycles():
        program = record.program
        cycles[program.cycle] = server.codec.encode_cycle(
            program, int(record.start)
        )
        end_time = record.start + program.total_slots
    end = encode_json_frame(
        END,
        {
            "end_time": end_time,
            "cycles_completed": server.backend.cycles_completed,
        },
    )
    return encode_json_frame(HELLO, server._hello_payload()), cycles, end


@pytest.fixture(scope="module")
def stream():
    return offline_stream()


def _listen(hello, frames, end, pipeline=None):
    """Run a listener over ``hello``, ``frames`` and ``end``, no socket."""
    client = LiveClient("127.0.0.1", 0, client_id=0, pipeline=pipeline)
    feed = FrameStream()
    for raw in (hello, *frames, end):
        for event in feed.feed(raw):
            client._on_event(event)
    return client._finish()


def _with(cycles, after_cycle, extra, before_last=False):
    """Every cycle's frames in order, ``extra`` inserted after cycle
    ``after_cycle`` (or before that cycle's last frame)."""
    out = []
    for cycle in sorted(cycles):
        frames = cycles[cycle]
        if cycle == after_cycle:
            if before_last:
                out += [*frames[:-1], *extra, frames[-1]]
            else:
                out += [*frames, *extra]
        else:
            out += frames
    return out


def _damaged(raw):
    """The frame with its payload's first byte flipped: a CRC failure."""
    damaged = bytearray(raw)
    damaged[HEADER_BYTES] ^= 0xFF
    return bytes(damaged)


def _past_the_end(frames):
    """The first slot after the last one a cycle's frames fill."""
    return decode_frame(frames[-1])[0].slot + 1


def _readdressed(raw, slot):
    frame = decode_frame(raw)[0]
    return encode_frame(frame.type, frame.cycle, slot, frame.payload)


@pytest.fixture(scope="module")
def clean(stream):
    hello, cycles, end = stream
    return _listen(hello, _with(cycles, None, ()), end)


def _assert_as_clean(result, clean):
    assert (result.cycles_heard, result.cycles_missed) == (CYCLES, 0)
    assert (clean.cycles_heard, clean.cycles_missed) == (CYCLES, 0)
    assert result.metrics.snapshot() == clean.metrics.snapshot()
    assert result.end_time == clean.end_time


def test_a_replayed_control_frame_does_not_reopen_its_cycle(stream, clean):
    hello, cycles, end = stream
    replay = [cycles[REPLAYED][0]]
    assert decode_frame(replay[0])[0].type == CONTROL
    _assert_as_clean(_listen(hello, _with(cycles, AFTER, replay), end), clean)


def test_a_replayed_cycle_is_dropped_whole(stream, clean):
    hello, cycles, end = stream
    replay = cycles[REPLAYED] + cycles[AFTER]
    _assert_as_clean(_listen(hello, _with(cycles, AFTER, replay), end), clean)


def test_a_damaged_replayed_frame_is_dropped_too(stream, clean):
    hello, cycles, end = stream
    replay = [_damaged(cycles[REPLAYED][0]), _damaged(cycles[REPLAYED][3])]
    events = FrameStream().feed(b"".join(replay))
    assert len(events) == 2
    assert all(isinstance(event, FrameCorrupt) for event in events)
    _assert_as_clean(_listen(hello, _with(cycles, AFTER, replay), end), clean)


def test_a_frame_of_an_earlier_cycle_than_the_one_assembled_is_dropped(stream):
    """Cycle 10 never arrives (a lossy wire), then one of its DATA frames
    turns up inside cycle 11, before that cycle's last bucket."""
    hello, cycles, end = stream
    lossy = {cycle: frames for cycle, frames in cycles.items() if cycle != 10}
    expected = _listen(hello, _with(lossy, None, ()), end)
    assert (expected.cycles_heard, expected.cycles_missed) == (CYCLES - 1, 1)
    late = [cycles[10][5]]
    result = _listen(hello, _with(lossy, AFTER, late, before_last=True), end)
    assert (result.cycles_heard, result.cycles_missed) == (CYCLES - 1, 1)
    assert result.metrics.snapshot() == expected.metrics.snapshot()


def test_a_data_frame_at_an_unannounced_slot_does_not_complete_a_cycle(
    stream, clean
):
    hello, cycles, end = stream
    frames = cycles[AFTER]
    outside = [
        _readdressed(frames[1], _past_the_end(frames)),
        _readdressed(frames[2], 2**32 - 1),
    ]
    assert decode_frame(outside[0])[0].type == DATA
    result = _listen(hello, _with(cycles, AFTER, outside, before_last=True), end)
    _assert_as_clean(result, clean)


def test_frames_heard_before_their_control_keep_only_announced_slots(stream, clean):
    """A relay that reorders: two of cycle 11's DATA frames and one at a
    slot nobody announced arrive before its CONTROL.  The announced two
    are kept (decoded without a header), the stray one is dropped once
    the CONTROL frame says where the data segment ends."""
    hello, cycles, end = stream
    control, *data = cycles[AFTER]
    stray = _readdressed(data[0], _past_the_end(data))
    reordered = dict(cycles)
    reordered[AFTER] = [data[0], stray, data[1], control, *data[2:]]
    _assert_as_clean(_listen(hello, _with(reordered, None, ()), end), clean)


@pytest.mark.parametrize(
    "extra, before_last",
    [("replayed control", False), ("unannounced slot", True)],
)
def test_under_a_fault_pipeline_a_misaddressed_frame_is_a_frame_error(
    stream, extra, before_last
):
    hello, cycles, end = stream
    if extra == "replayed control":
        inserted = [cycles[REPLAYED][0]]
    else:
        inserted = [_readdressed(cycles[AFTER][1], _past_the_end(cycles[AFTER]))]
    # The clean stream passes the exact lane...
    _listen(hello, _with(cycles, None, ()), end, pipeline=[])
    # ...and the misaddressed frame does not.
    with pytest.raises(FrameError, match="misaddressed"):
        _listen(
            hello, _with(cycles, AFTER, inserted, before_last), end, pipeline=[]
        )

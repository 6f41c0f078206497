"""A finished listener is freed by reference counting alone.

``LiveClient._finish`` closes the member it drove, as a cohort chunk
closes its members (``tests/cohort/test_chunk_memory.py``), and has its
codec let go of the payloads it held raw, each of which points back at
the codec.  With the collector off, one offline listener -- the
``listen-inval`` broadcast at seed 11 fed through ``FrameStream``, no
socket -- leaves no unreachable object behind, on the clean stream and
under the ``kitchen-sink`` preset's client-side faults, and the teardown
changes no count.
"""

import gc

import pytest

from repro.cohort.engine import Member
from repro.config import ModelParameters
from repro.faults.injector import FaultInjector
from repro.faults.presets import get_preset
from repro.live.client import LiveClient
from repro.live.codec import CycleCodec, FrameStream
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry
from tests.live.test_misaddressed_frames import CYCLES, offline_stream


@pytest.fixture(scope="module", params=["inval+cache", "sgt+cache"])
def stream(request):
    hello, cycles, end = offline_stream(request.param)
    return hello, [raw for cycle in sorted(cycles) for raw in cycles[cycle]], end


def _listen(hello, frames, end, preset):
    """The registry snapshot of one listener over the stream, its
    result already dropped."""
    faults = {}
    if preset is not None:
        params = get_preset(preset).apply(
            ModelParameters().with_sim(num_cycles=CYCLES, seed=11)
        )
        injector = FaultInjector(params.faults, params.sim, MetricsRegistry())
        spec = next(SeedOrder(11).clients(1, injector=injector))
        faults = dict(pipeline=spec.pipeline, disconnect=spec.disconnect)
    client = LiveClient("127.0.0.1", 0, client_id=0, **faults)
    feed = FrameStream()
    for raw in (hello, *frames, end):
        for event in feed.feed(raw):
            client._on_event(event)
    return client._finish().metrics.snapshot()


@pytest.mark.parametrize("preset", [None, "kitchen-sink"])
def test_a_finished_listener_leaves_nothing_to_the_collector(
    monkeypatch, stream, preset
):
    gc.collect()
    gc.disable()
    try:
        untied = _listen(*stream, preset)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    # The preset's faults did reach the listener.
    assert any(name.startswith("fault.") for name in untied) == (preset is not None)
    # The same listener left tied: the teardown counts nothing.
    monkeypatch.setattr(Member, "close", lambda self: None)
    monkeypatch.setattr(CycleCodec, "release_held", lambda self: None)
    assert _listen(*stream, preset) == untied

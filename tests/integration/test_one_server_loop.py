"""One server loop, three consumers.

``SingleChannelBackend.process()`` is the only server loop: the event
kernel runs it for :class:`Simulation`, and :class:`KernellessServer`
steps it for cohort replay and for the live socket.  Under one seed
the three must therefore air the same programs at the same instants,
cycle for cycle -- cohort replay being "feed members between the loop's
steps" and the live server "encode and await between them".
"""

import asyncio

import pytest

from repro.cohort.engine import CohortSimulation
from repro.core.control import ReportSchedule
from repro.core.invalidation import InvalidationOnly
from repro.live.codec import programs_equal
from repro.live.server import LiveBroadcastServer
from repro.runtime import Simulation
from tests.live.test_codec_reuse import CYCLES, _built_programs


class _Asking(InvalidationOnly):
    """A plain listener that asks the server for a given air format."""

    def __init__(self, requirements):
        super().__init__(use_cache=False)
        self._requirements = requirements

    def requirements(self):
        return self._requirements


class _Tap:
    """Channel listener: what went on the air, and when."""

    def __init__(self, env):
        self.env = env
        self.aired = []

    def on_cycle_start(self, program):
        self.aired.append((self.env.now, program))


class _RecordingCodec:
    """Stands in for the server's codec: what it was handed to encode."""

    def __init__(self, codec):
        self.codec = codec
        self.handed = []

    def encode_cycle(self, program, start_slot):
        self.handed.append((start_slot, program))
        return self.codec.encode_cycle(program, start_slot)


async def _live_cycles(params, requirements):
    server = LiveBroadcastServer(params, requirements)
    server.codec = recorder = _RecordingCodec(server.codec)
    await server.start()
    reader, writer = await asyncio.open_connection(server.host, server.port)

    async def sink():
        while await reader.read(1 << 16):
            pass

    listening = asyncio.ensure_future(sink())
    try:
        await server.wait_for_clients(1, timeout=5.0)
        await server.run()
    finally:
        await server.stop()
        await asyncio.wait_for(listening, 10.0)
        writer.close()
    assert server.backend.cycles_completed == CYCLES
    return recorder.handed


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize(
    "organization, sgt",
    [(None, False), ("overflow", False), ("clustered", False), (None, True)],
    ids=["flat", "overflow", "clustered", "sgt"],
)
def test_kernel_trace_and_live_air_the_same_cycles(organization, sgt, seed):
    params, requirements, records = _built_programs(organization, sgt, seed)

    sim = Simulation(params, scheme_factory=lambda: _Asking(requirements))
    tap = _Tap(sim.env)
    sim.channel.subscribe(tap)
    sim.run()

    handed = asyncio.run(_live_cycles(params, requirements))

    assert len(tap.aired) == len(records) == len(handed) == CYCLES
    for (at, on_air), record, (start_slot, encoded) in zip(
        tap.aired, records, handed
    ):
        assert at == record.start == start_slot
        assert on_air.cycle == record.cycle == encoded.cycle
        # BroadcastProgram has identity __eq__; compare field-wise.
        assert programs_equal(on_air, record.program)
        assert programs_equal(encoded, record.program)


def test_kernelless_consumers_still_refuse_subcycle_reports():
    params, requirements, _records = _built_programs(None, False)
    twice = ReportSchedule(per_cycle=2)
    with pytest.raises(
        ValueError,
        match="cohort mode requires one report per cycle; sub-cycle "
        "interim reports need the event-driven simulation",
    ):
        CohortSimulation(
            params, lambda: _Asking(requirements), report_schedule=twice
        )
    with pytest.raises(
        ValueError,
        match="live mode airs one report per cycle; sub-cycle interim "
        "reports need the event-driven simulation",
    ):
        LiveBroadcastServer(params, requirements, report_schedule=twice)

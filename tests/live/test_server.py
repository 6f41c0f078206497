"""Lifecycle pins for the live broadcast server.

The ISSUE's shutdown bug class: a stopped server must leave nothing
behind -- no bound socket (start/stop/start on the *same* port must
work back to back, which ``SO_REUSEADDR`` plus a full teardown
guarantees), no orphaned connection tasks, and ``stop()`` must be
idempotent and safe to race with ``run()``.
"""

import asyncio

import pytest

from repro.cohort.oracle import oracle_params
from repro.core.control import ReportSchedule
from repro.experiments.schemes import scheme_factory
from repro.live.clock import CycleClock, ImmediateClock, RealTimeClock
from repro.live.codec import END, HELLO, FrameStream, encode_frame
from repro.live.server import LiveBroadcastServer


def _make_server(num_cycles: int = 10, **kwargs) -> LiveBroadcastServer:
    params = oracle_params(2, seed=13, faults=False, num_cycles=num_cycles)
    scheme = scheme_factory("inval+cache")()
    return LiveBroadcastServer(params, scheme.requirements(), **kwargs)


def _leftover_tasks():
    return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]


def test_start_stop_start_reuses_the_same_port():
    async def scenario():
        first = _make_server()
        await first.start()
        port = first.port
        assert port is not None
        await first.stop()

        # Rebinding the exact port immediately must not flake on
        # EADDRINUSE: the socket is opened with SO_REUSEADDR and stop()
        # fully released it.
        second = _make_server(port=port)
        await second.start()
        assert second.port == port
        await second.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())


def test_stop_is_idempotent_and_safe_before_start():
    async def scenario():
        server = _make_server()
        await server.stop()  # never started: still a clean no-op
        await server.start()
        await server.stop()
        await server.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())


def test_run_requires_start():
    async def scenario():
        server = _make_server()
        with pytest.raises(RuntimeError):
            await server.run()

    asyncio.run(scenario())


def test_stop_drains_connected_listeners_without_orphans():
    async def scenario():
        server = _make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        await server.wait_for_clients(1, timeout=5.0)

        # The listener heard its HELLO before anything aired.
        stream = FrameStream()
        frames = []
        while not frames:
            frames = stream.feed(await reader.read(1 << 16))
        assert frames[0].type == HELLO

        # Stopping with a live connection must complete promptly and
        # leave no connection-handler task behind.
        await asyncio.wait_for(server.stop(), 10.0)
        assert server._conn_tasks == set()
        assert server._writers == set()
        # The client sees EOF, not a hang.
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await asyncio.wait_for(_await_closed(writer), 5.0)
        assert _leftover_tasks() == []

    async def _await_closed(writer):
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    asyncio.run(scenario())


def test_request_stop_interrupts_a_running_broadcast():
    async def scenario():
        # A slow clock so the broadcast is still mid-flight when the
        # stop request lands (500 cycles would otherwise take minutes).
        server = _make_server(num_cycles=500, clock=RealTimeClock(0.01))
        await server.start()
        runner = asyncio.ensure_future(server.run())
        await asyncio.sleep(0.15)
        server.request_stop()
        await asyncio.wait_for(runner, 10.0)
        assert 0 < server.backend.cycles_completed < 500
        await server.stop()
        assert _leftover_tasks() == []

    asyncio.run(scenario())


class _GatedClock(CycleClock):
    """Full speed, but holds the broadcast after the listed cycles until
    the test lets it go on."""

    def __init__(self, stops) -> None:
        self.stops = set(stops)
        self.cycle = 0
        self.reached = asyncio.Event()
        self.go_on = asyncio.Event()

    async def wait(self, slots: int) -> None:
        self.cycle += 1
        if self.cycle in self.stops:
            self.reached.set()
            await self.go_on.wait()
            self.go_on.clear()
        else:
            await asyncio.sleep(0)


class _Sink:
    """A raw listener: keeps the frames it hears, re-encoded, by cycle."""

    def __init__(self) -> None:
        self.by_cycle = {}
        self.ended = False

    async def listen(self, server) -> None:
        reader, self.writer = await asyncio.open_connection(
            server.host, server.port
        )
        stream = FrameStream()
        try:
            while data := await reader.read(1 << 16):
                for frame in stream.feed(data):
                    if frame.type == END:
                        self.ended = True
                    elif frame.type != HELLO:
                        self.by_cycle.setdefault(frame.cycle, []).append(
                            encode_frame(
                                frame.type, frame.cycle, frame.slot, frame.payload
                            )
                        )
        finally:
            await self.hang_up()

    async def hang_up(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _until(condition, timeout: float = 10.0) -> None:
    async def poll():
        while not condition():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout)


def test_unheard_cycles_are_not_encoded_and_a_late_listener_misses_nothing_after():
    """With nobody tuned in the timeline advances without encoding; a
    listener joining at cycle k hears k+1 onwards exactly as a listener
    present all along, and the encoder's memory survives the gap."""
    cycles, first_leaves, second_joins = 14, 3, 7

    async def broadcast(clock, script):
        server = _make_server(num_cycles=cycles, clock=clock)
        encoded = []
        encode_cycle = server.codec.encode_cycle

        def counting(program, start_slot):
            encoded.append(program.cycle)
            return encode_cycle(program, start_slot)

        server.codec.encode_cycle = counting
        await server.start()
        try:
            await script(server)
        finally:
            await server.stop()
        assert server.backend.cycles_completed == cycles
        assert _leftover_tasks() == []
        return encoded

    async def scenario():
        # The reference: one listener from the first cycle to the last.
        steady = _Sink()

        async def all_along(server):
            task = asyncio.ensure_future(steady.listen(server))
            await server.wait_for_clients(1, timeout=5.0)
            await server.run()
            await server.stop()
            await asyncio.wait_for(task, 10.0)

        assert await broadcast(ImmediateClock(), all_along) == list(
            range(1, cycles + 1)
        )
        assert steady.ended and sorted(steady.by_cycle) == list(
            range(1, cycles + 1)
        )

        # One listener for the first cycles, nobody for a while, then a
        # second listener to the end.
        early, late = _Sink(), _Sink()
        clock = _GatedClock({first_leaves, second_joins})

        async def with_a_gap(server):
            first = asyncio.ensure_future(early.listen(server))
            await server.wait_for_clients(1, timeout=5.0)
            runner = asyncio.ensure_future(server.run())

            await asyncio.wait_for(clock.reached.wait(), 10.0)
            clock.reached.clear()
            await _until(
                lambda: len(early.by_cycle.get(first_leaves, ()))
                == len(steady.by_cycle[first_leaves])
            )
            await early.hang_up()
            await _until(lambda: not server._writers)
            clock.go_on.set()

            await asyncio.wait_for(clock.reached.wait(), 10.0)
            second = asyncio.ensure_future(late.listen(server))
            await server.wait_for_clients(2, timeout=5.0)
            clock.go_on.set()

            await asyncio.wait_for(runner, 10.0)
            await server.stop()
            await asyncio.wait_for(asyncio.gather(first, second), 10.0)

        heard_early = list(range(1, first_leaves + 1))
        heard_late = list(range(second_joins + 1, cycles + 1))
        assert await broadcast(clock, with_a_gap) == heard_early + heard_late
        assert sorted(early.by_cycle) == heard_early and not early.ended
        assert sorted(late.by_cycle) == heard_late and late.ended
        for sink in (early, late):
            for cycle, frames in sink.by_cycle.items():
                assert frames == steady.by_cycle[cycle]

    asyncio.run(scenario())


def test_rejects_configurations_live_mode_cannot_honor():
    params = oracle_params(2, seed=13, faults=False, num_cycles=10)
    scheme = scheme_factory("inval+cache")()

    resilient = params.with_resilience(retry_policy="backoff")
    with pytest.raises(ValueError, match="resilience"):
        LiveBroadcastServer(resilient, scheme.requirements())

    with pytest.raises(ValueError, match="one report per cycle"):
        LiveBroadcastServer(
            params,
            scheme.requirements(),
            report_schedule=ReportSchedule(per_cycle=2),
        )

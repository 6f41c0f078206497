"""The asyncio broadcast server: real encoded cycles over TCP fan-out.

The server is the simulation's, loop included:
:class:`~repro.cohort.trace.KernellessServer` steps the unmodified
:class:`~repro.server.backend.SingleChannelBackend` with no event kernel
under it, and between two of its steps this module fans the cycle's
frames out to every connected listener and lets a
:class:`~repro.live.clock.CycleClock` wait out the airtime.  Clients
never send anything after connecting (broadcast *push*: the paper's
scalability property is physical here -- the server's work is
independent of the audience size).

Shutdown is deliberately boring: ``stop()`` is idempotent, closes the
listening socket (opened with ``SO_REUSEADDR``, so back-to-back runs
never flake on ``EADDRINUSE``), closes every client connection, and
awaits every task it spawned -- nothing is left orphaned, which the
start/stop/start tests pin.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict
from typing import Optional, Set

from repro.cohort.trace import KernellessServer
from repro.config import ModelParameters
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.live.clock import CycleClock, ImmediateClock
from repro.live.codec import (
    END,
    HELLO,
    CycleCodec,
    WireProfile,
    encode_json_frame,
)
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry


class LiveBroadcastServer:
    """One live broadcast: the paper's server loop over real sockets.

    ``engine_rng`` defaults to the seed order's engine stream, so a
    loopback run shares the update workload of its DES twin bit for bit.
    """

    def __init__(
        self,
        params: ModelParameters,
        requirements: BroadcastRequirements,
        *,
        scheme_label: str = "",
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[CycleClock] = None,
        engine_rng: Optional[random.Random] = None,
        metrics: Optional[MetricsRegistry] = None,
        keep_history: bool = False,
        report_schedule: Optional[ReportSchedule] = None,
    ) -> None:
        params.validate()
        if params.resilience.active:
            raise ValueError(
                "live mode does not support resilience bundles; run the "
                "event-driven simulation for crash-recovery experiments"
            )
        self.report_schedule = report_schedule or ReportSchedule()
        if self.report_schedule.per_cycle != 1:
            raise ValueError(
                "live mode airs one report per cycle; sub-cycle interim "
                "reports need the event-driven simulation"
            )
        self.params = params
        self.requirements = BroadcastRequirements(
            report_window=self.report_schedule.window
        ).merge(requirements)
        self.scheme_label = scheme_label
        self.host = host
        self.requested_port = port
        self.clock = clock or ImmediateClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        if engine_rng is None:
            engine_rng = SeedOrder(params.sim.seed).engine_rng()
        self._loop = KernellessServer(
            params,
            self.requirements,
            self.metrics,
            engine_rng,
            keep_history=keep_history,
        )
        self.database = self._loop.substrate.database
        self.engine = self._loop.substrate.engine
        self.backend = self._loop.backend
        self.profile = WireProfile.from_params(
            params.server, self.requirements
        )
        self.codec = CycleCodec(self.profile)

        self.port: Optional[int] = None
        self.end_time: float = 0.0
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._joined = 0
        self._joined_event = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting listeners (does not air anything)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.requested_port,
            reuse_address=True,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the broadcast loop to wind down (signal-handler safe)."""
        self._stop_event.set()

    async def stop(self) -> None:
        """Idempotent teardown: no orphaned tasks, no lingering sockets."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        # Closing the transports feeds EOF to every handler's read();
        # they exit on their own -- cancel only a straggler.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                self._conn_tasks, timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()

    async def wait_for_clients(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` listeners have received their HELLO."""
        async def _wait() -> None:
            while self._joined < count:
                self._joined_event.clear()
                await self._joined_event.wait()

        await asyncio.wait_for(_wait(), timeout)

    # -- connections --------------------------------------------------------

    def _hello_payload(self) -> dict:
        return {
            "profile": self.profile.to_wire(),
            "params": asdict(self.params),
            "requirements": asdict(self.requirements),
            "scheme": self.scheme_label,
            "num_cycles": self.params.sim.num_cycles,
        }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            writer.write(encode_json_frame(HELLO, self._hello_payload()))
            await writer.drain()
            self._writers.add(writer)
            self._joined += 1
            self._joined_event.set()
            # Listeners never talk back; read() returning b"" is the
            # disconnect signal (broadcast push has no client->server path).
            while await reader.read(4096):
                pass
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _broadcast(self, payload: bytes) -> None:
        for writer in list(self._writers):
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                self._writers.discard(writer)

    async def _wait_cycle(self, slots: int) -> None:
        """Wait out one cycle's airtime, abandoning early on stop."""
        waiter = asyncio.ensure_future(self.clock.wait(slots))
        stopper = asyncio.ensure_future(self._stop_event.wait())
        try:
            await asyncio.wait(
                {waiter, stopper}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for pending in (waiter, stopper):
                if not pending.done():
                    pending.cancel()
            await asyncio.gather(waiter, stopper, return_exceptions=True)

    # -- the broadcast loop --------------------------------------------------

    async def run(self) -> None:
        """Air ``num_cycles`` cycles, then an END frame.

        The timeline does not depend on the audience: with nobody tuned
        in, the database and the clock advance all the same and the cycle
        is simply not encoded, so whoever joins hears the broadcast where
        it stands.
        """
        if self._server is None:
            raise RuntimeError("call start() before run()")
        cycles = self._loop.cycles()
        # A stop is honoured before the loop takes its next step, so the
        # cycle on the air when it arrives is the last one built.
        while not self._stop_event.is_set():
            record = next(cycles, None)
            if record is None:
                break
            program = record.program
            if self._writers:
                frames = self.codec.encode_cycle(program, int(record.start))
                await self._broadcast(b"".join(frames))
            await self._wait_cycle(program.total_slots)
            self.end_time = record.start + program.total_slots
        if not self._stop_event.is_set():
            await self._broadcast(
                encode_json_frame(
                    END,
                    {
                        "end_time": self.end_time,
                        "cycles_completed": self.backend.cycles_completed,
                    },
                )
            )

    async def serve(self) -> None:
        """start() + run() + stop() with guaranteed teardown."""
        await self.start()
        try:
            await self.run()
        finally:
            await self.stop()

"""The asyncio broadcast server: real encoded cycles over TCP fan-out.

The server stack is the *unmodified* simulation substrate --
``Database`` / ``ItemStateStore`` / ``TransactionEngine`` /
``ProgramBuilder`` -- driven through the unmodified
:class:`~repro.server.backend.SingleChannelBackend` loop.  Only the
kernel is swapped out: the backend's ``yield env.timeout(slots)``
lands here, where the cycle's frames are fanned out to every connected
listener and a :class:`~repro.live.clock.CycleClock` waits out the
airtime.  Clients never send anything after connecting (broadcast
*push*: the paper's scalability property is physical here -- the
server's work is independent of the audience size).

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
from typing import Dict, Optional, Set

from repro.cohort.shim import CohortEnv
from repro.config import (
    ClientParameters,
    FaultParameters,
    ModelParameters,
    ResilienceParameters,
    ServerParameters,
    SimulationParameters,
)
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.live.clock import CycleClock, ImmediateClock
from repro.live.codec import (
    END,
    HELLO,
    CycleCodec,
    WireProfile,
    encode_json_frame,
)
from repro.server.backend import SingleChannelBackend
from repro.server.broadcast import ProgramBuilder
from repro.server.database import Database
from repro.server.itemstate import ItemStateStore, make_item_state
from repro.server.transactions import TransactionEngine
from repro.stats.metrics import MetricsRegistry


def params_to_wire(params: ModelParameters) -> dict:
    """JSON-safe form of the full parameter set (HELLO frame)."""
    return asdict(params)


def params_from_wire(blob: dict) -> ModelParameters:
    return ModelParameters(
        server=ServerParameters(**blob["server"]),
        client=ClientParameters(**blob["client"]),
        sim=SimulationParameters(**blob["sim"]),
        faults=FaultParameters(**blob["faults"]),
        resilience=ResilienceParameters(**blob["resilience"]),
    )


def requirements_to_wire(requirements: BroadcastRequirements) -> dict:
    return asdict(requirements)


def requirements_from_wire(blob: dict) -> BroadcastRequirements:
    return BroadcastRequirements(**blob)


class _ProgramFeed:
    """The backend's channel seam: captures each cycle's program."""

    __slots__ = ("program",)

    def __init__(self) -> None:
        self.program = None

    def begin_cycle(self, program) -> None:
        self.program = program


class LiveBroadcastServer:
    """One live broadcast: the paper's server loop over real sockets.

    Parameters mirror the simulation wiring: the engine RNG is drawn
    from the master seed exactly as ``Simulation.__init__`` draws it
    (first ``getrandbits(64)``), so a loopback run shares the update
    workload of its DES twin bit for bit.
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
        columnar: bool = True,
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
            master = random.Random(params.sim.seed)
            engine_rng = random.Random(master.getrandbits(64))

        # -- the unmodified server substrate (same wiring as build_trace) --
        self.database = Database(params.server.broadcast_size)
        item_state = make_item_state(
            self.database,
            retention=(
                params.server.retention
                if self.requirements.needs_old_versions
                else 0
            ),
            columnar=columnar,
            items_per_bucket=params.server.items_per_bucket,
        )
        version_store: Optional[ItemStateStore] = (
            item_state if self.requirements.needs_old_versions else None
        )
        self.engine = TransactionEngine(
            params.server,
            self.database,
            version_store=version_store,
            rng=engine_rng,
            keep_history=keep_history,
        )
        builder = ProgramBuilder(
            params.server,
            self.database,
            version_store=version_store,
            requirements=self.requirements,
            item_state=item_state,
        )
        self._env = CohortEnv()
        self._feed = _ProgramFeed()
        self.backend = SingleChannelBackend(
            env=self._env,
            params=params,
            report_schedule=self.report_schedule,
            metrics=self.metrics,
            engine=self.engine,
            builder=builder,
            channel=self._feed,
        )
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
            "params": params_to_wire(self.params),
            "requirements": requirements_to_wire(self.requirements),
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

        The backend generator is the DES server loop verbatim; every
        ``Wake`` it yields is one cycle's airtime.  The timeline does not
        depend on the audience: with nobody tuned in, the database and
        the clock advance all the same and the cycle is simply not
        encoded, so whoever joins hears the broadcast where it stands.
        """
        if self._server is None:
            raise RuntimeError("call start() before run()")
        gen = self.backend.process()
        start_slot = 0
        while not self._stop_event.is_set():
            try:
                wake = next(gen)
            except StopIteration:
                break
            program = self._feed.program
            if self._writers:
                frames = self.codec.encode_cycle(program, start_slot)
                await self._broadcast(b"".join(frames))
            await self._wait_cycle(program.total_slots)
            start_slot += program.total_slots
            self._env.now = wake.at
        self.end_time = float(start_slot)
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

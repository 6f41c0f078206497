"""The cohort driver: advance client cohorts a window of cycles at a time.

Instead of interleaving every client's events through one kernel heap,
the driver exploits client independence (no client ever influences the
server or another client) to advance each member *member-major* over a
window of cycles: it takes up to :data:`CYCLE_WINDOW` cycles off the
air, walks the first member through all of them, then the next, and
only then takes the next window.  One member's cache, generator frame
and RNG stay hot across the window instead of being reloaded once per
cycle.  Both orders execute the identical multiset of per-client steps
with identical per-client clocks and RNG streams (programs are
immutable snapshots, storm windows are drawn up front, and each member
owns its fault pipeline, clock and RNG), so every counter, ratio and
sampler exact-sum is equal to the discrete run's -- the property
:mod:`repro.cohort.oracle` checks exhaustively.

Per member and cycle boundary ``T1`` the driver replays the kernel's
scheduling rules:

1. run every pending timeout with wake time strictly before ``T1``
   (kernel: those events precede the server's boundary timeout, which
   carries the oldest event id at that instant);
2. decide the cycle's fate (fault pipeline) at ``T1``;
3. on a lost control segment: ``on_signal_lost`` fires at ``T1`` and the
   client keeps its pending state into the next cycle;
4. on a delayed control segment: run wakes strictly below the install
   instant first (they park on the out-of-step view exactly as they
   would against the kernel-fed ``FaultyChannel``), then install;
5. install (listener callback: cache + scheme control processing), then
   resume a parked client -- the kernel's ``succeed`` gives resumed
   waiters the freshest event ids, so they run after the installation
   either way.

A timeout landing *exactly* on a boundary fires at the top of the next
cycle's step 1 with the same clock value -- after installation, matching
the kernel's event-id order (the server's boundary timeout is always
older).  At the end of the run, a wake exactly at the stop instant runs
once before the simulation stops, again matching event-id order.
"""

from __future__ import annotations

import math
import os
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

from repro.broadcast.program import BroadcastProgram
from repro.client.machine import BroadcastClient
from repro.cohort.channel import CohortChannel
from repro.cohort.shim import CohortEnv
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.faults.injector import FaultInjector
from repro.cohort.trace import CycleRecord, KernellessServer
from repro.runtime import SimulationResult
from repro.seeds import ClientSeed, DisconnectFactory, SeedOrder
from repro.stats.metrics import MetricsRegistry


class Member:
    """One client's generator, clock and channel under the driver.

    That is all a member holds: like the scheme's read context, it has
    no server handle.  The generator yields an instant to wake at or
    parks until the next install.

    Also the protocol driver of the live client (:mod:`repro.live`),
    which replays decoded wire cycles through the same kernel-exact
    scheduling rules -- the extraction of the client protocol logic
    from the DES engine that ROADMAP item 2 calls for.
    """

    __slots__ = ("client", "channel", "env", "gen", "wake", "steps")

    def __init__(
        self, client: BroadcastClient, channel: CohortChannel, env: CohortEnv
    ) -> None:
        self.client = client
        self.channel = channel
        self.env = env
        #: ``env.process`` hands the run() generator back unstarted.
        self.gen = client.process
        #: Pending wake time; ``None`` means parked until the next install.
        self.wake: Optional[float] = None
        self.steps = 0

    def advance(self) -> None:
        """Step the generator once and classify what it is waiting on:
        an instant to wake at, or anything else to park on."""
        self.steps += 1
        try:
            value = next(self.gen)
        except StopIteration:  # pragma: no cover - clients loop forever
            self.wake = math.inf
            return
        kind = type(value)
        self.wake = value if kind is float or kind is int else None

    def run_until(self, limit: float) -> None:
        """Fire pending timeouts with wake strictly before ``limit``."""
        while self.wake is not None and self.wake < limit:
            self.env.now = self.wake
            self.advance()

    def deliver(self, start: float, program) -> None:
        """Advance this member across one full broadcast cycle."""
        # Wakes before the boundary still see the previous cycle in step;
        # deciding the fate is what puts a lossy view out of step.
        self.run_until(start)
        delay, lost, control_lost = self.channel.prepare_cycle(program)
        self.cross(
            start, program.cycle, None if control_lost else program, lost, delay
        )

    def cross(
        self,
        start: float,
        cycle: int,
        program=None,
        lost: frozenset = frozenset(),
        delay: float = 0.0,
    ) -> None:
        """Cross the boundary into ``cycle`` with its fate already
        decided: ``program`` is ``None`` when the control segment never
        decoded, else it installs ``delay`` slots in, less ``lost``."""
        self.run_until(start)
        if program is None:
            # The cycle is missed: the client's knowledge (and any pending
            # timeout) carries over; only the listener hook fires.
            self.env.now = start
            self.channel.signal_lost(cycle)
            return
        if delay:
            install_at = start + delay
            self.run_until(install_at)
            self.env.now = install_at
        else:
            self.env.now = start
        self.channel.install(program, lost, start)
        if self.wake is None:
            # Parked on cycle_started: resumes now, after installation.
            self.advance()

    def finish(self, end_time: float) -> None:
        """Run out the tail of the simulation up to the stop instant."""
        self.run_until(end_time)
        if self.wake == end_time:
            # A timeout scheduled before the stop instant and landing
            # exactly on it still fires (older event id than the stop).
            self.env.now = end_time
            self.advance()

    def close(self) -> None:
        """Release the member once its run is over: the generator,
        suspended mid-query, holds the client, and so does the channel's
        listener list, so without this the member is freed only by the
        cyclic collector.  Closing the generator runs the attempt's
        cleanup, which counts nothing."""
        self.gen.close()
        self.channel.unsubscribe(self.client)


def make_member(
    seed: ClientSeed,
    scheme: Scheme,
    params: ModelParameters,
    metrics: MetricsRegistry,
    keep_history: bool = False,
) -> Member:
    """Assemble one kernel-less client -- clock, channel, protocol
    machine -- and prime it: it parks on ``cycle_started`` (nothing is on
    the air yet), like the kernel's Initialize event before the server's
    first cycle.  Its finished attempts are kept only under
    ``keep_history``."""
    env = CohortEnv()
    channel = CohortChannel(
        env, metrics, pipeline=seed.pipeline, client_id=seed.client_id
    )
    client = BroadcastClient(
        env=env,
        channel=channel,
        scheme=scheme,
        params=params.client,
        metrics=metrics,
        rng=seed.rng,
        disconnect=seed.disconnect,
        client_id=seed.client_id,
        warmup_cycles=params.sim.warmup_cycles,
        keep_history=keep_history,
    )
    member = Member(client, channel, env)
    member.advance()
    return member


def build_trace(cycles: Iterator[CycleRecord]) -> Optional[CycleRecord]:
    """Step a chunk's server one cycle: the next cycle on the air, or
    ``None`` once the run is over.

    The benchmark's ``trace_build.*`` span wraps this module global by
    name, so the driver calls it through the global, and the name is
    held for that span until ROADMAP item 12(e)'s benchmark revision
    renames it.
    """
    return next(cycles, None)


#: Cycles a chunk's members are walked through at a time.  A window
#: holds this many programs, which share their buckets; it bounds what a
#: run holds beyond its members (DESIGN §17, "Cohort replay"), and was
#: sized by measurement: 16 takes most of the locality gain of walking
#: the whole run at once (DESIGN §12, "Loop order").
CYCLE_WINDOW = 16

#: Members per cohort chunk.  The population splits into chunks of this
#: many clients in client-id order, whatever the core count, so a run's
#: registry never depends on how many processes replayed it.
DEFAULT_COHORT_SIZE = 512


def usable_cores() -> int:
    """The cores this process may run on: how many processes one run's
    chunks fan out to, at most."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity call (macOS)
        return os.cpu_count() or 1


def _processes(chunks: int) -> int:
    """How many processes replay a run of ``chunks`` chunks: one per
    usable core up to one per chunk, from a single-threaded main process
    that can fork; one otherwise.  A worker of someone else's pool stays
    in-process, and so does a process with other threads, which a fork
    could catch holding a lock."""
    processes = min(chunks, usable_cores())
    if processes < 2:
        return 1
    import multiprocessing
    import threading

    if (
        multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    return processes


#: A chunk's outcome: its registry, its members' steps, and its server's
#: ``(cycles_completed, total_slots)``.
ChunkResult = Tuple[MetricsRegistry, int, Tuple[int, int]]

#: The run a forked worker replays chunks of (set in the worker only).
_adopted: Optional["CohortSimulation"] = None


def _adopt(sim: "CohortSimulation") -> None:
    global _adopted
    _adopted = sim


def _adopted_chunk(k: int, requirements: BroadcastRequirements) -> ChunkResult:
    return _adopted._run_chunk(k, requirements)


class CohortSimulation:
    """Drop-in alternative to :class:`~repro.runtime.Simulation` that
    streams the server's air past chunked cohorts of clients.

    The population splits into chunks of ``cohort_size`` members in
    client-id order.  A chunk needs nothing from any other: it draws its
    clients' streams off its own seed order and re-derives the air from
    a fresh server on the run's engine stream, as the air is a pure
    function of ``(params, seed)``.  So the chunks run in parallel
    processes, one per usable core (see :func:`usable_cores`), and their
    registries merge in chunk order: the run's registry is bit-identical
    for any process count.  Within a chunk the members are walked through
    a window of :data:`CYCLE_WINDOW` cycles each before the server steps
    on.  A process holds one chunk and one window at a time: a finished
    chunk closes its members and its server, so reference counting frees
    it before the next chunk is built.  Memory stays bounded in the
    cohort size (a member holds mostly its cache of records), not the
    population, and flat in the run's length.
    """

    def __init__(
        self,
        params: ModelParameters,
        scheme_factory: Callable[[], Scheme],
        disconnect_factory: Optional[DisconnectFactory] = None,
        report_schedule: Optional[ReportSchedule] = None,
        cohort_size: int = DEFAULT_COHORT_SIZE,
    ) -> None:
        params.validate()
        if params.resilience.active:
            raise ValueError(
                "cohort mode does not support resilience bundles; "
                "run without --cohorts for crash-recovery experiments"
            )
        self.report_schedule = report_schedule or ReportSchedule()
        if self.report_schedule.per_cycle != 1:
            raise ValueError(
                "cohort mode requires one report per cycle; sub-cycle "
                "interim reports need the event-driven simulation"
            )
        self.params = params
        self.scheme_factory = scheme_factory
        self.disconnect_factory = disconnect_factory
        self.cohort_size = max(1, cohort_size)
        #: The run's registry: chunk 0's, with every later chunk's
        #: merged into it in chunk order.
        self.metrics = MetricsRegistry()
        #: Generator resumptions summed over every chunk's members (the
        #: cohort analogue of the kernel's events-processed figure, for
        #: bench).
        self.steps = 0

    def run(self) -> SimulationResult:
        probe = self.scheme_factory()
        # Merging one scheme's requirements equals merging N identical
        # ones: every field combines by idempotent OR / max.
        requirements = BroadcastRequirements(
            report_window=self.report_schedule.window
        ).merge(probe.requirements())
        chunks = -(-self.params.sim.num_clients // self.cohort_size)
        processes = _processes(chunks)
        if processes == 1:
            results = [self._run_chunk(k, requirements) for k in range(chunks)]
        else:
            results = self._fan_out(chunks, processes, requirements)
        self.metrics, self.steps, (cycles_completed, total_slots) = results[0]
        for metrics, steps, _ in results[1:]:
            self.metrics.merge(metrics)
            self.steps += steps
        return SimulationResult(
            params=self.params,
            scheme_label=probe.label,
            metrics=self.metrics,
            cycles_completed=cycles_completed,
            mean_cycle_slots=(
                total_slots / cycles_completed if cycles_completed else 0.0
            ),
            clients=[],
        )

    def _fan_out(
        self, chunks: int, processes: int, requirements: BroadcastRequirements
    ) -> List[ChunkResult]:
        """Every chunk's result in chunk order: this process replays the
        chunks ``k = 0 (mod processes)``, ``processes - 1`` forked workers
        the rest.  No worker outlives the call, whether it returns or
        raises."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            processes - 1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(self,),
        ) as pool:
            try:
                pending = {
                    k: pool.submit(_adopted_chunk, k, requirements)
                    for k in range(chunks)
                    if k % processes
                }
                results = {
                    k: self._run_chunk(k, requirements)
                    for k in range(0, chunks, processes)
                }
                for k, future in pending.items():
                    results[k] = future.result()
            except BaseException:
                # The workers finish only the chunks they have started.
                pool.shutdown(cancel_futures=True)
                raise
        return [results[k] for k in range(chunks)]

    def _run_chunk(
        self, k: int, requirements: BroadcastRequirements
    ) -> ChunkResult:
        """Replay chunk ``k`` on its own: its members, from client
        ``k * cohort_size`` on, stepped past a fresh server a window of
        :data:`CYCLE_WINDOW` cycles at a time, member by member.  The
        order depends only on ``(k, window)``, so the chunk's registry
        does not depend on how many processes share the run."""
        params = self.params
        metrics = MetricsRegistry()
        seeds = SeedOrder(params.sim.seed)
        # The engine stream comes off the seed order before any client's.
        rng = seeds.engine_rng()
        injector: Optional[FaultInjector] = None
        if params.faults.active:
            injector = FaultInjector(params.faults, params.sim, metrics)
        first = k * self.cohort_size
        last = min(first + self.cohort_size, params.sim.num_clients)
        members = [
            make_member(seed, self.scheme_factory(), params, metrics)
            for seed in seeds.clients(
                last, self.disconnect_factory, injector, start=first
            )
        ]
        # Every chunk re-derives the same air; only chunk 0's server
        # counts into the run's registry.
        server = KernellessServer(
            params, requirements, metrics if k == 0 else MetricsRegistry(), rng
        )
        cycles = server.cycles()
        # The lambda reads ``build_trace`` off the module on every step.
        records = iter(lambda: build_trace(cycles), None)
        window: List[Tuple[float, BroadcastProgram]] = []
        while True:
            window.extend(
                (record.start, record.program)
                for record in islice(records, CYCLE_WINDOW)
            )
            if not window:
                break
            for member in members:
                for start, program in window:
                    member.deliver(start, program)
            # The window's programs go before the next window's come in.
            window.clear()
        steps = 0
        for member in members:
            member.finish(server.env.now)
            member.close()
            steps += member.steps
        backend = server.backend
        server.close()
        return metrics, steps, (backend.cycles_completed, backend.total_slots)

"""The six workloads: frozen constants, one repetition of each, its checks.

A *repetition* sets the workload up from nothing (substrate, bind,
connect, HELLO), runs its timed window and tears it down.  A run ends
with the verification repetition, which is not timed and carries the
heavy correctness checks; the timed repetitions before it must have
reported exactly its counts.  Only public entry points and public
injection seams are used (``clock=``, ``scheme=``, ``engine_rng=``,
``rng=``, ``params=``); the program receives nothing but the generated
parameters and RNG streams.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import registry_delta
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.clock import CycleClock, ImmediateClock
from repro.live.codec import (
    END,
    HELLO,
    CycleCodec,
    FrameCorrupt,
    FrameStream,
    WireProfile,
    decode_json_payload,
    encode_frame,
)
from repro.live.server import LiveBroadcastServer
from repro.runtime import Simulation
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry
from repro.verify import violations

#: Airtime of one paced cycle: 25-35 % utilisation of the sgt+cache pipe
#: on the reference box, so the schedule never waits for the pipe.
PACE_SECONDS = 0.1

#: The figure profile of ``repro.experiments.runner.FULL_PROFILE``.
SWEEP_SCHEMES = (
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
    "mv-caching",
)

#: Clients of the small discrete twin that vouches for the cohort path.
COHORT_TWIN_CLIENTS = 20


@dataclass(frozen=True)
class Workload:
    """Frozen constants of one workload (paper-default parameters
    everywhere else)."""

    name: str
    kind: str  # "serve" | "listen" | "sweep" | "cohort"
    schemes: Tuple[str, ...]
    cycles: int
    #: Byte sinks (serve), live clients (listen), simulated clients.
    audience: int
    warmup: int = 5
    server: Tuple[Tuple[str, int], ...] = ()
    pace: float = 0.0

    def scaled(self, scale: float) -> "Workload":
        """The same workload at ``scale`` of its size (``--smoke``)."""
        if scale == 1.0:
            return self
        cycles = max(self.warmup + 1, round(self.cycles * scale))
        audience = self.audience
        if self.kind == "cohort":
            audience = max(COHORT_TWIN_CLIENTS, round(audience * scale))
        return replace(self, cycles=cycles, audience=audience)

    def params(self, seed: int, clients: int) -> ModelParameters:
        return (
            ModelParameters()
            .with_server(**dict(self.server))
            .with_sim(
                num_cycles=self.cycles,
                warmup_cycles=self.warmup,
                num_clients=clients,
                seed=seed,
            )
        )


#: The issue's sizes: a repetition takes 4-6 s on the reference box, so
#: the ramp (client caches filling, `retention` = 16 cycles of old
#: versions piling up) is a small part of every timed window.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve-flat", "serve", ("inval",), cycles=600, audience=2),
        Workload(
            "serve-mv-churn", "serve", ("multiversion",), cycles=120,
            audience=2,
            server=(("updates_per_cycle", 400), ("transactions_per_cycle", 40)),
        ),
        Workload("listen-inval", "listen", ("inval+cache",), cycles=120,
                 audience=2),
        Workload("listen-sgt-paced", "listen", ("sgt+cache",), cycles=48,
                 audience=1, pace=PACE_SECONDS),
        Workload("des-sweep", "sweep", SWEEP_SCHEMES, cycles=150,
                 audience=10, warmup=10),
        Workload("cohort-1k", "cohort", ("inval+cache",), cycles=60,
                 audience=1000),
    )
}


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_s: float
    #: Cycles carried through the whole pipe in the timed window.
    cycles: int = 0
    #: Paced only: per-cycle delivery latency, from when the cycle was due.
    fresh_ms: List[float] = field(default_factory=list)
    #: Exact counts; every repetition of one seed must report the same.
    counts: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    late_cycles: int = 0
    sched_lag_ms: List[float] = field(default_factory=list)
    #: Bytes received by all consumers together.
    bytes_received: int = 0
    kernel_events: int = 0
    client_steps: int = 0


# -- the paced generator and the freshness stamps -----------------------------


class ScheduleClock(CycleClock):
    """Absolute schedule: cycle ``k`` (0-based) is due at ``t0 + k * P``.

    An open loop: a late cycle does not push the later ones back, it
    eats into their slack.  Records when each boundary was due and when
    the generator actually went on.

    It waits by yielding to the event loop until the time has come, not
    by sleeping: a process that sleeps 70 % of the time is woken late
    and runs on a cold processor, by an amount that is the box's and
    moved the median freshness by a third from one minute to the next.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        #: Set when the timed window opens.
        self.t0 = 0.0
        self.due: List[float] = []
        self.woke: List[float] = []

    def due_at(self, index: int) -> float:
        return self.t0 + index * self.period

    async def wait(self, slots: int) -> None:
        due = self.due_at(len(self.due) + 1)
        while perf_counter() < due:
            await asyncio.sleep(0)
        self.due.append(due)
        self.woke.append(perf_counter())


@lru_cache(maxsize=None)
def _stamped_class(base: type) -> type:
    def on_cycle_start(self, program) -> None:
        base.on_cycle_start(self, program)
        self.stamps.append((program.cycle, perf_counter()))

    return type(
        f"Stamped{base.__name__}", (base,), {"on_cycle_start": on_cycle_start}
    )


def stamped_scheme(label: str, stamps: List[Tuple[int, float]]) -> Scheme:
    """The scheme ``label`` names, as a thin subclass that records when it
    finished processing each cycle's control information."""
    scheme = scheme_factory(label)()
    scheme.__class__ = _stamped_class(type(scheme))
    scheme.stamps = stamps
    return scheme


@contextmanager
def _traced_window(tracer):
    """Spans are recorded inside the timed window only: ``tracer`` (a
    ``tracing.Tracer`` or None) wraps the layers for just that long."""
    if tracer is not None:
        tracer.install()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.remove()


def _query_counts(metrics: MetricsRegistry) -> Dict[str, object]:
    attempts = metrics.get_ratio(metric_names.ATTEMPT_COMMITTED)
    queries = metrics.get_ratio(metric_names.QUERY_COMPLETED)
    return {
        "attempts": attempts.total if attempts else 0,
        "commits": attempts.hits if attempts else 0,
        "queries": queries.total if queries else 0,
        "queries_done": queries.hits if queries else 0,
    }


def _count_operations(rep: Rep, owed: int, processed: int) -> None:
    """Operations: every query, and every cycle owed to every client.  A
    query given up after ``max_attempts`` failed; so did a cycle a client
    never processed."""
    rep.attempted = rep.counts["queries"] + owed
    rep.failed = (rep.counts["queries"] - rep.counts["queries_done"]) + (
        owed - processed
    )


def _derive_rngs(seed: int, clients: int):
    """Engine draw first, then per client in id order -- the derivation of
    ``Simulation.__init__`` and ``repro.live.oracle.run_live``."""
    master = random.Random(seed)
    engine_rng = random.Random(master.getrandbits(64))
    return engine_rng, [
        random.Random(master.getrandbits(64)) for _ in range(clients)
    ]


# -- live workloads: serve-* and listen-* --------------------------------------


class ByteSink:
    """A listener that keeps the bytes and decodes nothing."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.chunks: List[bytes] = []
        self.received = 0

    async def run(self) -> float:
        """Returns when the last bytes arrived."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        last = perf_counter()
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                last = perf_counter()
                self.received += len(data)
                self.chunks.append(data)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return last

    def digest(self) -> str:
        sha = hashlib.sha1()
        for chunk in self.chunks:
            sha.update(chunk)
        return sha.hexdigest()


async def _listen(client: LiveClient):
    result = await client.run()
    return result, perf_counter()


def _scan_stream(
    chunks: Sequence[bytes], cycles: int, round_trip: bool
) -> List[str]:
    """One ``FrameStream`` pass over what a sink kept, after the timed
    window; returns the problems found.  With ``round_trip`` the first,
    middle and last cycle must also decode and re-encode to the very
    frames received."""
    keep = {1, (cycles + 1) // 2, cycles} if round_trip else set()
    raw: Dict[int, List[bytes]] = {}
    on_wire = set()
    hello = end = None
    stream = FrameStream()
    corrupt = 0
    for chunk in chunks:
        for frame in stream.feed(chunk):
            if isinstance(frame, FrameCorrupt):
                corrupt += 1
                frame = frame.frame
            if frame.type == HELLO:
                hello = frame
            elif frame.type == END:
                end = frame
            else:
                on_wire.add(frame.cycle)
                if frame.cycle in keep:
                    raw.setdefault(frame.cycle, []).append(
                        encode_frame(
                            frame.type, frame.cycle, frame.slot, frame.payload
                        )
                    )
    problems: List[str] = []
    if corrupt:
        problems.append(f"{corrupt} corrupt frame(s) in the stream")
    if hello is None or end is None:
        return problems + ["stream is not HELLO ... END"]
    completed = decode_json_payload(end.payload)["cycles_completed"]
    if completed != cycles or len(on_wire) != cycles:
        problems.append(
            f"END reports {completed} cycles, {len(on_wire)} on the "
            f"wire, expected {cycles}"
        )
    if round_trip and not problems:
        profile = decode_json_payload(hello.payload)["profile"]
        codec = CycleCodec(WireProfile.from_wire(profile))
        for cycle, frames in sorted(raw.items()):
            program, start_slot = codec.decode_cycle(frames)
            if codec.encode_cycle(program, start_slot) != frames:
                problems.append(
                    f"cycle {cycle} does not re-encode to its frames"
                )
    return problems


class LiveRunner:
    """``serve-*`` and ``listen-*``: the server on loopback, one asyncio
    thread, at most two measured connections."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.listeners = workload.audience if workload.kind == "listen" else 0
        self.params = workload.params(seed, max(1, self.listeners))
        self.label = workload.schemes[0]
        #: Bytes one listener receives, from the verification repetition.
        self.stream_bytes = 0

    def rep(self, verify: bool, tracer=None) -> Rep:
        return asyncio.run(self._rep(verify, tracer))

    async def _rep(self, verify: bool, tracer) -> Rep:
        w = self.w
        began = perf_counter()
        engine_rng, client_rngs = _derive_rngs(self.seed, self.listeners)
        # The verification repetition runs at full speed: what goes on the
        # wire and what the clients decide do not depend on the pace.
        clock = (
            ScheduleClock(w.pace) if w.pace and not verify else ImmediateClock()
        )
        server = LiveBroadcastServer(
            self.params,
            scheme_factory(self.label)().requirements(),
            scheme_label=self.label,
            clock=clock,
            engine_rng=engine_rng,
        )
        await server.start()
        # listen-* get one extra, auditing sink in the verification
        # repetition only: LiveClient does not say how many bytes it read.
        sinks = [
            ByteSink(server.host, server.port)
            for _ in range(w.audience if w.kind == "serve" else int(verify))
        ]
        stamps: List[List[Tuple[int, float]]] = [[] for _ in client_rngs]
        clients = [
            LiveClient(
                server.host,
                server.port,
                scheme=stamped_scheme(self.label, stamps[client_id]),
                client_id=client_id,
                rng=rng,
                params=self.params,
            )
            for client_id, rng in enumerate(client_rngs)
        ]
        tasks = [asyncio.ensure_future(_listen(c)) for c in clients]
        tasks += [asyncio.ensure_future(s.run()) for s in sinks]
        try:
            await server.wait_for_clients(len(tasks))
            with _traced_window(tracer):
                started = perf_counter()
                if isinstance(clock, ScheduleClock):
                    clock.t0 = started
                await server.run()
                # stop() flushes and closes: listeners have their END
                # frame, sinks see end-of-file.
                await server.stop()
                finished = await asyncio.wait_for(
                    asyncio.gather(*tasks), 60.0
                )
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        finally:
            await server.stop()

        heard = finished[: len(clients)]
        ended = max(
            [at for _result, at in heard] + list(finished[len(clients):])
        )
        rep = Rep(
            setup_s=started - began,
            wall_s=ended - started,
        )
        if server.backend.cycles_completed != w.cycles:
            rep.problems.append(
                f"server aired {server.backend.cycles_completed} of "
                f"{w.cycles} cycles"
            )
        if sinks:
            self._account_sinks(rep, sinks, verify)
        if clients:
            merged = self._account_clients(
                rep, server, clients, [result for result, _at in heard],
                stamps, clock,
            )
            if verify:
                self._check_twin(rep, server, merged)
        return rep

    # -- accounting and checks (outside the timed window) -------------------

    def _account_sinks(self, rep: Rep, sinks, verify: bool) -> None:
        w = self.w
        problems = _scan_stream(sinks[0].chunks, w.cycles, round_trip=verify)
        rep.problems += problems
        if verify:
            self.stream_bytes = sinks[0].received
        if w.kind != "serve":
            return
        digests = [sink.digest() for sink in sinks]
        differing = sum(1 for digest in digests if digest != digests[0])
        if differing:
            rep.problems.append("the sinks' byte streams differ")
        rep.counts = {
            "stream_sha1": digests[0],
            "stream_bytes": sinks[0].received,
        }
        rep.bytes_received = sum(sink.received for sink in sinks)
        # Carried through only if intact at every sink.
        rep.cycles = 0 if differing or problems else w.cycles
        rep.attempted = w.cycles * len(sinks)
        rep.failed = w.cycles * (differing + bool(problems))

    def _account_clients(
        self, rep: Rep, server, clients, results, stamps, clock
    ) -> MetricsRegistry:
        w = self.w
        merged = MetricsRegistry()
        merged.merge(server.metrics)
        for result in results:
            merged.merge(result.metrics)
        rep.counts = _query_counts(merged)
        rep.counts["cycles_heard"] = sum(r.cycles_heard for r in results)
        deliveries = w.cycles * len(clients)
        _count_operations(rep, deliveries, rep.counts["cycles_heard"])
        rep.client_steps = sum(client.member.steps for client in clients)
        if rep.counts["cycles_heard"] != deliveries:
            rep.problems.append("a listener missed cycles on a lossless wire")
        # A cycle is carried through once every listener has processed it.
        processed = [dict(listener) for listener in stamps]
        delivered = [
            cycle
            for cycle in range(1, w.cycles + 1)
            if all(cycle in times for times in processed)
        ]
        rep.cycles = len(delivered)
        if isinstance(clock, ScheduleClock):
            rep.fresh_ms = [
                (max(times[cycle] for times in processed)
                 - clock.due_at(cycle - 1)) * 1e3
                for cycle in delivered
            ]
            rep.late_cycles = (w.cycles - len(delivered)) + sum(
                1 for ms in rep.fresh_ms if ms > clock.period * 1e3
            )
            rep.sched_lag_ms = [
                (woke - due) * 1e3 for woke, due in zip(clock.woke, clock.due)
            ]
        return merged

    def _check_twin(self, rep: Rep, server, merged: MetricsRegistry) -> None:
        """The discrete simulation of the same parameters and seed must
        end with exactly the registry the live run merged."""
        factory = scheme_factory(self.label)
        twin = Simulation(self.params, scheme_factory=factory).run()
        delta = registry_delta(twin.metrics, merged)
        if twin.cycles_completed != server.backend.cycles_completed:
            delta.insert(0, {"metric": "cycles_completed"})
        if delta:
            rep.problems.append(
                f"live registry differs from its Simulation twin: {delta[:4]}"
            )


# -- batch workloads -------------------------------------------------------------


class SweepRunner:
    """``des-sweep``: regenerating one figure point per scheme."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.params = workload.params(seed, workload.audience)

    def rep(self, verify: bool, tracer=None) -> Rep:
        w = self.w
        began = perf_counter()
        sims = [
            Simulation(
                self.params,
                scheme_factory=scheme_factory(label),
                # The serializability check replays the server's history;
                # only the (untimed) verification repetition records it.
                keep_history=verify,
            )
            for label in w.schemes
        ]
        with _traced_window(tracer):
            started = perf_counter()
            results = [sim.run() for sim in sims]
            ended = perf_counter()

        merged = MetricsRegistry()
        rep = Rep(
            setup_s=started - began,
            wall_s=ended - started,
            cycles=sum(result.cycles_completed for result in results),
        )
        for label, sim, result in zip(w.schemes, sims, results):
            merged.merge(result.metrics)
            rep.kernel_events += sim.env.events_processed
            if result.cycles_completed != w.cycles:
                rep.problems.append(
                    f"{label}: {result.cycles_completed} of {w.cycles} cycles"
                )
            if verify:
                bad = violations(
                    result.clients, sim.database, sim.engine.history
                )
                if bad:
                    rep.problems.append(
                        f"{label}: {len(bad)} committed readset(s) "
                        "violate the correctness criterion"
                    )
        rep.counts = _query_counts(merged)
        _count_operations(
            rep, w.cycles * w.audience * len(w.schemes), rep.cycles * w.audience
        )
        return rep


class CohortRunner:
    """``cohort-1k``: one server trace replayed to a thousand clients."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.params = workload.params(seed, workload.audience)

    def rep(self, verify: bool, tracer=None) -> Rep:
        w = self.w
        began = perf_counter()
        cohort = CohortSimulation(
            self.params, scheme_factory=scheme_factory(w.schemes[0])
        )
        with _traced_window(tracer):
            started = perf_counter()
            result = cohort.run()
            ended = perf_counter()
        rep = Rep(
            setup_s=started - began,
            wall_s=ended - started,
            # Every client is carried through every cycle.
            cycles=result.cycles_completed * w.audience,
            counts=_query_counts(result.metrics),
            client_steps=cohort.steps,
        )
        _count_operations(rep, w.cycles * w.audience, rep.cycles)
        if result.cycles_completed != w.cycles:
            rep.problems.append(
                f"{result.cycles_completed} of {w.cycles} cycles"
            )
        if verify:
            rep.problems += self._check_twin()
        return rep

    def _check_twin(self) -> List[str]:
        """The first clients of the population, replayed by the cohort
        engine and run by the discrete simulation, must agree exactly
        (same seed, so the same server trace and client streams)."""
        params = self.w.params(self.seed, COHORT_TWIN_CLIENTS)
        factory = scheme_factory(self.w.schemes[0])
        twin = Simulation(params, scheme_factory=factory).run()
        small = CohortSimulation(params, scheme_factory=factory).run()
        delta = registry_delta(twin.metrics, small.metrics)
        if delta:
            return [f"cohort replay differs from its Simulation twin: {delta[:4]}"]
        return []


def make_runner(workload: Workload, seed: int):
    kind = {"serve": LiveRunner, "listen": LiveRunner,
            "sweep": SweepRunner, "cohort": CohortRunner}[workload.kind]
    return kind(workload, seed)

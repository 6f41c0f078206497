"""Top-level simulation wiring: one server, one channel, many clients.

This is the main entry point of the library:

>>> from repro import ModelParameters, Simulation
>>> from repro.core import InvalidationOnly
>>> params = ModelParameters().with_sim(num_cycles=30, warmup_cycles=5)
>>> sim = Simulation(params, scheme_factory=lambda: InvalidationOnly())
>>> result = sim.run()
>>> 0.0 <= result.abort_rate <= 1.0
True

The server process loops forever: build the cycle's program, put it on
the air, transmit it slot by slot, commit the cycle's update transactions
(visible next cycle), repeat.  Clients are pure listeners; the scalability
claim of the paper holds *by construction* -- there is no code path from
a client to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.schedule import Schedule
from repro.client.machine import BroadcastClient
from repro.faults.injector import FaultInjector
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.obs.trace import EV_ENGINE_STEP, Tracer, gate
from repro.resilience import build_client_resilience, resilience_seed
from repro.seeds import DisconnectFactory, SeedOrder
from repro.server.backend import ServerBackend, SingleChannelBackend
from repro.server.broadcast import ProgramBuilder
from repro.server.substrate import build_substrate
from repro.server.transactions import TransactionEngine
from repro.sim.engine import Environment
from repro.stats.metrics import MetricsRegistry


@dataclass
class SimulationResult:
    """Aggregated outcome of one run."""

    params: ModelParameters
    scheme_label: str
    metrics: MetricsRegistry
    cycles_completed: int
    #: Mean broadcast length in slots over the run (sizing consequence).
    mean_cycle_slots: float
    clients: List[BroadcastClient] = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        """Fraction of attempts that aborted (Figures 5 and 6)."""
        ratio = self.metrics.get_ratio("attempt.committed")
        if ratio is None or ratio.total == 0:
            return 0.0
        return ratio.complement

    @property
    def acceptance_rate(self) -> float:
        """Fraction of attempts accepted (the paper's "concurrency")."""
        return 1.0 - self.abort_rate

    @property
    def mean_latency_cycles(self) -> float:
        """Mean cycles per *committed* transaction (Figure 8)."""
        sampler = self.metrics.get_sampler("txn.latency_cycles")
        if sampler is None or sampler.count == 0:
            return float("nan")
        return sampler.mean

    @property
    def mean_span(self) -> float:
        sampler = self.metrics.get_sampler("txn.span")
        if sampler is None or sampler.count == 0:
            return float("nan")
        return sampler.mean

    @property
    def committed_attempts(self) -> int:
        ratio = self.metrics.get_ratio("attempt.committed")
        return ratio.hits if ratio else 0

    @property
    def total_attempts(self) -> int:
        ratio = self.metrics.get_ratio("attempt.committed")
        return ratio.total if ratio else 0

    def abort_count(self, reason: str) -> int:
        counter = self.metrics.get_counter(f"abort.{reason}")
        return counter.value if counter else 0


class KernelSimulation:
    """What every event-kernel run shares: the clock, the registry, the
    master-seed order, tracer binding, the server process and the result.

    Subclasses build clients and a :class:`ServerBackend`, then hand the
    backend to :meth:`_launch`.
    """

    def __init__(
        self,
        params: ModelParameters,
        report_schedule: Optional[ReportSchedule],
        tracer: Optional[Tracer],
    ) -> None:
        params.validate()
        self.params = params
        self.report_schedule = report_schedule or ReportSchedule()
        self.env = Environment()
        self.metrics = MetricsRegistry()
        self.seeds = SeedOrder(params.sim.seed)
        self.clients: List[BroadcastClient] = []
        self.tracer = tracer
        self._trace_c = gate(tracer, "cycles")
        if tracer is not None and tracer.enabled:
            tracer.bind_clock(lambda: self.env.now)
            if tracer.engine:
                self.env.set_trace_hook(
                    lambda now, ev: tracer.emit(
                        EV_ENGINE_STEP, event=type(ev).__name__
                    )
                )

    def _adopt_schemes(
        self, scheme_factory: Callable[[], Scheme]
    ) -> BroadcastRequirements:
        """One scheme per client; returns their merged requirements."""
        self.schemes: List[Scheme] = [
            scheme_factory() for _ in range(self.params.sim.num_clients)
        ]
        requirements = BroadcastRequirements(
            report_window=self.report_schedule.window
        )
        for scheme in self.schemes:
            requirements = requirements.merge(scheme.requirements())
        return requirements

    def _single_channel_backend(
        self,
        engine: TransactionEngine,
        builder: ProgramBuilder,
        channel: BroadcastChannel,
    ) -> SingleChannelBackend:
        return SingleChannelBackend(
            env=self.env,
            params=self.params,
            report_schedule=self.report_schedule,
            metrics=self.metrics,
            engine=engine,
            builder=builder,
            channel=channel,
            trace_cycles=self._trace_c,
        )

    def _launch(self, backend: ServerBackend) -> None:
        self.backend = backend
        self._stop = self.env.event()
        self.env.process(self._server_process())

    def _server_process(self):
        yield from self.backend.process()
        self._stop.succeed()

    def run(self) -> SimulationResult:
        """Run to the configured number of cycles and aggregate results."""
        self.env.run(until=self._stop)
        cycles = self.backend.cycles_completed
        mean_slots = self.backend.total_slots / cycles if cycles else 0.0
        return SimulationResult(
            params=self.params,
            scheme_label=self.schemes[0].label if self.schemes else "none",
            metrics=self.metrics,
            cycles_completed=cycles,
            mean_cycle_slots=mean_slots,
            clients=self.clients,
        )


class Simulation(KernelSimulation):
    """Builds and runs one complete broadcast-push simulation."""

    def __init__(
        self,
        params: ModelParameters,
        scheme_factory: Callable[[], Scheme],
        schedule: Optional[Schedule] = None,
        disconnect_factory: Optional[DisconnectFactory] = None,
        keep_history: bool = False,
        report_schedule: Optional[ReportSchedule] = None,
        interleaved_server: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(params, report_schedule, tracer)
        substrate = build_substrate(
            params.server,
            self._adopt_schemes(scheme_factory),
            self.seeds.engine_rng(),
            keep_history=keep_history,
            interleaved=interleaved_server,
            tracer=tracer,
            schedule=schedule,
        )
        self.database = substrate.database
        self.item_state = substrate.item_state
        self.engine = substrate.engine
        self.builder = substrate.builder

        # -- air interface and clients ------------------------------------------
        self.channel = BroadcastChannel(self.env)
        self.fault_injector: Optional[FaultInjector] = None
        if params.faults.active:
            self.fault_injector = FaultInjector(
                params.faults, params.sim, self.metrics, tracer=tracer
            )
        # Resilience bundles draw from their own seeded RNG tree (like
        # the fault injector), so enabling them never perturbs the
        # workload or fault streams.
        resilience_rng: Optional[random.Random] = None
        if params.resilience.active:
            resilience_rng = random.Random(
                resilience_seed(params.resilience, params.sim.seed)
            )
        for seed, scheme in zip(
            self.seeds.clients(
                params.sim.num_clients, disconnect_factory, self.fault_injector
            ),
            self.schemes,
        ):
            client_channel: BroadcastChannel = self.channel
            if self.fault_injector is not None:
                client_channel = self.fault_injector.wrap(
                    self.channel, seed.client_id, seed.pipeline
                )
            resilience = None
            if resilience_rng is not None:
                resilience = build_client_resilience(
                    params.resilience,
                    params.sim.num_cycles,
                    random.Random(resilience_rng.getrandbits(64)),
                )
            self.clients.append(
                BroadcastClient(
                    env=self.env,
                    channel=client_channel,
                    scheme=scheme,
                    params=params.client,
                    metrics=self.metrics,
                    rng=seed.rng,
                    disconnect=seed.disconnect,
                    client_id=seed.client_id,
                    warmup_cycles=params.sim.warmup_cycles,
                    tracer=tracer,
                    resilience=resilience,
                    keep_history=keep_history,
                )
            )

        self._launch(
            self._single_channel_backend(
                self.engine, self.builder, self.channel
            )
        )

"""Server pre-pass: compute the whole broadcast schedule once, up front.

Clients never influence the server (the paper's scalability property,
asserted by the test suite), so the server's entire output -- one
:class:`~repro.broadcast.program.BroadcastProgram` per cycle plus its
start instant -- is a pure function of the parameters and the seed.  The
cohort engine exploits that: it runs the server loop *once*, records the
per-cycle programs, and then replays the trace to any number of client
cohorts.

The loop is the event-driven one: :class:`KernellessServer` steps the
unmodified :meth:`SingleChannelBackend.process
<repro.server.backend.SingleChannelBackend.process>` on a
:class:`~repro.cohort.shim.CohortEnv`, whose clock computes every wake
with the kernel's own float expression, so the recorded instants are
bit-identical to the discrete run's.  :func:`build_trace` collects its
steps; the live server (:mod:`repro.live.server`) encodes and awaits
between them.

Programs are safe to retain: the incremental builder copy-on-writes its
records and buckets, and every record type is frozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.broadcast.program import BroadcastProgram
from repro.cohort.shim import CohortEnv
from repro.config import ModelParameters
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.server.backend import SingleChannelBackend
from repro.server.substrate import build_substrate
from repro.stats.metrics import MetricsRegistry


@dataclass(frozen=True)
class CycleRecord:
    """One broadcast cycle as aired: its program and start instant."""

    cycle: int
    start: float
    program: BroadcastProgram


@dataclass
class ServerTrace:
    """The server's complete, replayable output for one run."""

    records: List[CycleRecord]
    end_time: float
    cycles_completed: int
    mean_cycle_slots: float


class KernellessServer:
    """The server loop with no event kernel under it.

    Doubles as the backend's channel seam: ``begin_cycle`` captures the
    program the loop just put on the air.  One report per cycle only --
    sub-cycle interim reports need a channel that can publish them.
    """

    def __init__(
        self,
        params: ModelParameters,
        requirements: BroadcastRequirements,
        metrics: MetricsRegistry,
        rng: random.Random,
        keep_history: bool = False,
    ) -> None:
        self.substrate = build_substrate(
            params.server,
            requirements,
            rng,
            keep_history=keep_history,
        )
        self.env = CohortEnv()
        self.program: Optional[BroadcastProgram] = None
        self.backend = SingleChannelBackend(
            env=self.env,
            params=params,
            report_schedule=ReportSchedule(),
            metrics=metrics,
            engine=self.substrate.engine,
            builder=self.substrate.builder,
            channel=self,
        )

    def begin_cycle(self, program: BroadcastProgram) -> None:
        self.program = program

    def cycles(self) -> Iterator[CycleRecord]:
        """One record per cycle, yielded while that cycle is on the air:
        its update transactions commit when the consumer asks for the
        next one."""
        for wake in self.backend.process():
            yield CycleRecord(self.program.cycle, self.env.now, self.program)
            self.env.now = wake.at


def build_trace(
    params: ModelParameters,
    requirements: BroadcastRequirements,
    metrics: MetricsRegistry,
    rng: random.Random,
) -> ServerTrace:
    """Run the server loop for every cycle and record the programs.

    ``rng`` is the engine stream (:meth:`repro.seeds.SeedOrder.engine_rng`),
    so the update workload matches the discrete run's bit for bit.
    """
    server = KernellessServer(params, requirements, metrics, rng)
    records = list(server.cycles())
    cycles = server.backend.cycles_completed
    return ServerTrace(
        records=records,
        end_time=server.env.now,
        cycles_completed=cycles,
        mean_cycle_slots=(
            server.backend.total_slots / cycles if cycles else 0.0
        ),
    )

"""The broadcast as a stream: the server loop, one cycle at a time.

Clients never influence the server (the paper's scalability property,
asserted by the test suite), so the server's entire output -- one
:class:`~repro.broadcast.program.BroadcastProgram` per cycle plus its
start instant -- is a pure function of the parameters and the seed.
Nothing needs to hold it: :class:`KernellessServer` yields each cycle
while it is on the air, the cohort engine (:mod:`repro.cohort.engine`)
feeds it to a chunk of members and steps on, and a later chunk
re-derives the same air from a fresh server on the same engine stream.

The loop is the event-driven one: :class:`KernellessServer` steps the
unmodified :meth:`SingleChannelBackend.process
<repro.server.backend.SingleChannelBackend.process>` on a
:class:`~repro.cohort.shim.CohortEnv`, whose clock computes every wake
with the kernel's own float expression, so the yielded instants are
bit-identical to the discrete run's.  The live server
(:mod:`repro.live.server`) encodes and awaits between the same steps.

Programs are safe to retain: the incremental builder copy-on-writes its
records and buckets, and every record type is frozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

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


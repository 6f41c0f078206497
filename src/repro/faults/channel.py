"""A per-client lossy view of the shared broadcast channel.

:class:`FaultyChannel` sits between one :class:`~repro.client.machine.
BroadcastClient` and the shared :class:`~repro.broadcast.channel.
BroadcastChannel`: a :class:`~repro.broadcast.channel.ClientView` fed by
the kernel.  Subscribed to the shared channel, it decides each cycle's
fate at the boundary (:func:`~repro.faults.models.decide_fate`) and then
signals the cycle lost (control segment lost: nothing is installed, reads
block until the next heard cycle, the scheme dooms its active queries
exactly as for a disconnection -- reusing the proved-safe
resynchronization path), installs it mid-cycle (control segment decoded
late), or installs it at once, in each case less the slots this client
will not receive.

The wrapper never touches the server side: faults are strictly a
receiver property, so the paper's scalability argument -- no client
influences the broadcast -- survives injection by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.broadcast.channel import BroadcastChannel, ClientView
from repro.broadcast.program import BroadcastProgram
from repro.faults.models import CycleFate, FaultModel, decide_fate
from repro.obs.trace import Tracer
from repro.sim.events import Event
from repro.stats.metrics import MetricsRegistry


class FaultyChannel(ClientView):
    """Wraps a :class:`BroadcastChannel` with client-local fault injection."""

    __slots__ = ("inner", "pipeline", "_cycle_started", "_generation")

    def __init__(
        self,
        inner: BroadcastChannel,
        pipeline: Sequence[FaultModel],
        metrics: Optional[MetricsRegistry] = None,
        client_id: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if metrics is None:
            metrics = MetricsRegistry()
        super().__init__(inner.env, metrics, client_id, tracer)
        self.inner = inner
        self.pipeline = list(pipeline)
        self._cycle_started: Event = self.env.event()
        self._generation = 0
        inner.subscribe(self)

    # -- fed by the real channel -------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        self._generation += 1
        self._in_step = False
        fate = decide_fate(
            self.pipeline, program.cycle, program.total_slots,
            program.control_slots, self.metrics, self.client_id, self._trace_q,
        )
        if fate.control_lost:
            self._signal_lost(program.cycle)
        elif fate.control_delay > 0:
            self.env.process(self._hear_later(program, fate))
        else:
            self._hear(program, fate)

    def on_interim_report(self, report) -> None:
        """Mid-cycle reports only reach a client in step with the air.

        Dropping one is safe by construction: the next cycle-start report
        covers every update of the cycle, so a missed interim report only
        delays an abort, never enables a bad commit.
        """
        if self._in_step:
            self._publish(report)

    def _hear_later(self, program: BroadcastProgram, fate: CycleFate):
        generation = self._generation
        yield self.env.timeout(fate.control_delay)
        if generation != self._generation:  # pragma: no cover - defensive;
            return  # decide_fate turns a delay of a whole cycle into a loss
        self._hear(program, fate)

    def _hear(self, program: BroadcastProgram, fate: CycleFate) -> None:
        self._install(
            program, frozenset(fate.lost_slots), self.inner.cycle_start_time
        )
        event, self._cycle_started = self._cycle_started, self.env.event()
        event.succeed(program)

    def cycle_started(self) -> Event:
        """Event firing at the next cycle start the client *hears*."""
        return self._cycle_started

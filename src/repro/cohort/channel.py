"""One client's view of the air, stepped without an event kernel.

:class:`CohortChannel` is the :class:`~repro.broadcast.channel.ClientView`
whose driver is outside it: the cohort replayer's
:class:`~repro.cohort.engine.Member` (or a live listener, off decoded
wire frames) calls :meth:`CohortChannel.prepare_cycle` at each cycle
boundary to learn the cycle's fate, moves the client's clock itself, and
then calls either ``install`` or ``signal_lost``.  A client parked on
``cycle_started`` holds no kernel event, just the :data:`CYCLE_WAIT`
token the driver recognises.  Tuning and timing are the shared view's,
so wake instants (and hence every downstream think-time and cycle
attribution) are bit-identical to a discrete run.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

from repro.broadcast.channel import ClientView
from repro.broadcast.program import BroadcastProgram
from repro.cohort.shim import CYCLE_WAIT, CohortEnv
from repro.faults.models import FaultModel, decide_fate
from repro.stats.metrics import MetricsRegistry


class CohortChannel(ClientView):
    """One client's (optionally lossy) view of the broadcast trace."""

    __slots__ = ("pipeline",)

    def __init__(
        self,
        env: CohortEnv,
        metrics: MetricsRegistry,
        pipeline: Optional[Sequence[FaultModel]] = None,
        client_id: int = 0,
    ) -> None:
        super().__init__(env, metrics, client_id)
        self.pipeline = list(pipeline) if pipeline is not None else None

    def prepare_cycle(
        self, program: BroadcastProgram
    ) -> Tuple[float, FrozenSet[int], bool]:
        """Decide this cycle's fate at its boundary instant.

        Returns ``(control_delay, lost_slots, control_lost)`` and leaves
        the clock/install mechanics to the driver.  On a perfect channel
        (no pipeline) the fate is trivially clean.
        """
        if self.pipeline is None:
            return (0.0, frozenset(), False)
        self._in_step = False
        fate = decide_fate(
            self.pipeline, program.cycle, program.total_slots,
            program.control_slots, self.metrics, self.client_id, self._trace_q,
        )
        return (fate.control_delay, frozenset(fate.lost_slots), fate.control_lost)

    #: The driver's two ways to end a boundary, published on this class
    #: (``install(program, lost, start_time)``, ``signal_lost(cycle)``).
    install = ClientView._install
    signal_lost = ClientView._signal_lost

    def cycle_started(self):
        """Park token: the driver resumes the client at the next install."""
        return CYCLE_WAIT

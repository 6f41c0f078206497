"""The client's view of the air, and the shared channel that feeds it.

One bucket is transmitted per slot (one simulated time unit); a bucket is
considered delivered at the middle of its slot, so deliveries never
collide with cycle boundaries.

:class:`ClientView` is everything a receiver knows about the broadcast --
which is only what it heard -- and the one definition of tuning and slot
timing for every way of running a client.  A perfect channel is simply
the view whose lost-slot set is empty and which is never out of step.
Run modes differ only in *who installs* a cycle into the view and *what a
client parks on* until the next one: :class:`BroadcastChannel` here (the
shared air of the discrete simulation),
:class:`~repro.faults.channel.FaultyChannel` (one client's lossy view, a
kernel listener of the shared channel) and
:class:`~repro.cohort.channel.CohortChannel` (one client's view stepped
without a kernel: cohort replay, live listeners).
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Protocol, Tuple

from repro.broadcast.program import BroadcastProgram, ItemRecord
from repro.obs.trace import EV_FAULT_READ_LOST, Tracer, gate
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.stats.metrics import FAULT_READS_LOST, MetricsRegistry


class ChannelListener(Protocol):
    """Anything that wants the control segment at each cycle start."""

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        """Called synchronously when a new cycle's program goes on air."""
        ...  # pragma: no cover


class ClientView:
    """One receiver's knowledge of the broadcast, and how it tunes.

    Subclasses feed it through :meth:`_install` / :meth:`_signal_lost`
    and define ``cycle_started()``: what a client yields to park until
    the next cycle it *hears*.
    """

    __slots__ = (
        "env", "metrics", "client_id", "_trace_q", "_trace_r", "_listeners",
        "_program", "_cycle_start_time", "_lost_slots", "_in_step",
    )

    def __init__(
        self,
        env,
        metrics: Optional[MetricsRegistry] = None,
        client_id: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        #: Where lost reads are counted; a view that never loses a slot
        #: (the shared perfect channel) needs none.
        self.metrics = metrics
        self.client_id = client_id
        self._trace_q = gate(tracer, "queries")
        self._trace_r = gate(tracer, "reads")
        #: ``(listener, on_interim_report, on_signal_lost)``: the optional
        #: handlers are resolved once, at subscribe time (``None`` where a
        #: listener has none), and the list is only ever appended to or
        #: replaced, so a listener may detach from inside a callback.
        self._listeners: List[Tuple[ChannelListener, Any, Any]] = []
        #: The last program whose control segment the client decoded --
        #: the client's *knowledge*, not what is physically on the air.
        self._program: Optional[BroadcastProgram] = None
        self._cycle_start_time = 0.0
        self._lost_slots: frozenset = frozenset()
        #: True while the installed program is the one currently on air.
        self._in_step = False

    def _install(
        self, program: BroadcastProgram, lost: frozenset, start_time: float
    ) -> None:
        """Make ``program`` the client's knowledge of the air.

        ``start_time`` is the *true* cycle start: slot timing stays
        anchored there even when the control segment decoded late -- the
        air does not wait.
        """
        self._program = program
        self._cycle_start_time = start_time
        self._lost_slots = lost
        self._in_step = True
        for listener, _, _ in self._listeners:
            listener.on_cycle_start(program)

    def _signal_lost(self, cycle: int) -> None:
        """The control segment of ``cycle`` never decoded: the cycle is
        missed.  The stale program is no longer consulted -- reads park
        until the next install -- and listeners are told, so a scheme can
        doom its active queries exactly as for a disconnection."""
        self._in_step = False
        for _, _, on_signal_lost in self._listeners:
            if on_signal_lost is not None:
                on_signal_lost(cycle)

    def _publish(self, report) -> None:
        for _, on_interim_report, _ in self._listeners:
            if on_interim_report is not None:
                on_interim_report(report)

    def subscribe(self, listener: ChannelListener) -> None:
        self._listeners.append((
            listener,
            getattr(listener, "on_interim_report", None),
            getattr(listener, "on_signal_lost", None),
        ))

    def unsubscribe(self, listener: ChannelListener) -> None:
        """Detach ``listener``; detaching one that is already gone is a
        no-op (a disconnect storm may race a client-initiated detach)."""
        self._listeners = [
            entry for entry in self._listeners if entry[0] is not listener
        ]

    # -- state ---------------------------------------------------------------

    @property
    def program(self) -> BroadcastProgram:
        if self._program is None:
            raise RuntimeError("The channel is not broadcasting yet")
        return self._program

    @property
    def on_air(self) -> bool:
        return self._program is not None

    @property
    def current_cycle(self) -> int:
        program = self._program
        if program is None:
            raise RuntimeError("The channel is not broadcasting yet")
        return program.cycle

    @property
    def cycle_start_time(self) -> float:
        return self._cycle_start_time

    # -- timing helpers ------------------------------------------------------

    def delivery_time(self, slot: int) -> float:
        """Absolute delivery time of cycle-relative ``slot`` this cycle."""
        return self._cycle_start_time + slot + 0.5

    def prefetch_time(self, slot: int) -> float:
        """When a cache autoprefetch armed on ``slot`` obtains its value:
        its delivery time, or ``inf`` for a bucket this client will not
        receive, so the prefetch never materializes."""
        if slot in self._lost_slots:
            return math.inf
        return self.delivery_time(slot)

    def relative_now(self) -> float:
        """Time since the current cycle started."""
        return self.env.now - self._cycle_start_time

    # -- client-side tuning (simulation processes) ---------------------------

    def _receivable(self, slot: int) -> bool:
        if slot in self._lost_slots:
            self.metrics.count(FAULT_READS_LOST)
            if self._trace_r is not None:
                self._trace_r.emit(
                    EV_FAULT_READ_LOST,
                    client=self.client_id,
                    cycle=self.program.cycle,
                    slot=slot,
                )
            return False
        return True

    def await_item(self, item: int):
        """Process: wait until ``item``'s current value flies by.

        Returns ``(record, cycle)`` where ``cycle`` is the broadcast cycle
        the value was read from.  A lost bucket costs the wait (the
        client tunes in and hears noise) and forces a retry on the item's
        next repetition; if none is left this cycle, or the view is out
        of step, waits for the next heard cycle.
        """
        while True:
            if self._in_step:
                program = self._program
                slot = program.next_slot_of(item, self.relative_now())
                while slot is not None:
                    yield self.env.timeout(self.delivery_time(slot) - self.env.now)
                    if self._receivable(slot):
                        return (program.record_of(item), program.cycle)
                    # This copy was lost.  The delivery instant is
                    # inclusive, so re-asking at the same instant would
                    # return the same slot forever; resume strictly
                    # after it (integer slots: next copy >= slot + 1).
                    slot = program.next_slot_of(item, slot + 1)
            # Already flown by: sleep until the next heard bcast begins.
            yield self.cycle_started()

    def await_old_version(self, item: int, cycle: int):
        """Process: wait for the on-air version of ``item`` current at
        ``cycle`` (Theorem 2's read rule: largest version <= first-read
        cycle).

        Returns ``(record, found, valid_to)``: ``found`` is ``False`` when
        the needed version is no longer on the air, in which case the
        transaction must abort.  ``valid_to`` is the last cycle the value
        was current for (``None`` when the current value satisfied the
        read).  The current value qualifies when its version is old
        enough; otherwise the old-version area is consulted, which in the
        overflow organization means waiting until the end of the bcast.
        Per-slot loss applies to the current and the overflow copy alike.
        """
        while True:
            if not self._in_step:
                yield self.cycle_started()
                continue
            program = self._program
            now_rel = self.relative_now()

            current = program.record_of(item)
            if current.version <= cycle:
                # The current value is the one we need.
                slot = program.next_slot_of(item, now_rel)
                while slot is not None:
                    yield self.env.timeout(self.delivery_time(slot) - self.env.now)
                    if self._receivable(slot):
                        return (current, True, None)
                    # Lost copy: resume strictly after it (see await_item).
                    slot = program.next_slot_of(item, slot + 1)
            else:
                hit = program.old_version_at(item, cycle)
                if hit is None:
                    # Required version discarded from the air: abort.
                    return (None, False, None)
                old, slot = hit
                # Delivery-instant inclusive, like next_slot_of: a process
                # resuming exactly at the delivery time still hears it.
                if slot + 0.5 >= now_rel:
                    yield self.env.timeout(self.delivery_time(slot) - self.env.now)
                    if self._receivable(slot):
                        record = ItemRecord(
                            item=old.item,
                            value=old.value,
                            version=old.version,
                            writer=old.writer,
                        )
                        return (record, True, old.valid_to)
                    # An old version rides exactly one slot per cycle;
                    # losing it means waiting for the next heard cycle.
            # Missed this cycle's copy; try again next heard cycle.
            yield self.cycle_started()


class BroadcastChannel(ClientView):
    """The (single, high-bandwidth) downstream channel, heard perfectly:
    the one view every client of a fault-free discrete run shares."""

    __slots__ = ("_cycle_started",)

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._cycle_started: Event = env.event()

    def begin_cycle(self, program: BroadcastProgram) -> None:
        """Install ``program`` and notify listeners; called by the server
        at the exact cycle-start instant."""
        self._install(program, frozenset(), self.env.now)
        # Wake everyone waiting for the boundary, then arm a fresh event.
        event, self._cycle_started = self._cycle_started, self.env.event()
        event.succeed(program)

    def publish_interim_report(self, report) -> None:
        """Push a mid-cycle invalidation report (§7 sub-cycle extension).

        Listeners that implement ``on_interim_report`` receive it; others
        are unaffected (the main per-cycle report still covers everything).
        """
        self._publish(report)

    def cycle_started(self) -> Event:
        """Event firing at the next cycle start with the new program."""
        return self._cycle_started

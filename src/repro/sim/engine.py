"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventPriority, Timeout
from repro.sim.process import Process, ProcessGenerator


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation with the event value."""
        raise cls(event.value)


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment holds the simulation clock (:attr:`now`) and a priority
    queue of scheduled events.  Simulated time only advances between events;
    all computation at one instant is instantaneous in simulated time.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._steps = 0
        self._trace_hook: Optional[Callable[[float, Event], None]] = None

    # -- clock and introspection -----------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events dispatched so far (the bench's events/sec base)."""
        return self._steps

    def set_trace_hook(
        self, hook: Optional[Callable[[float, Event], None]]
    ) -> None:
        """Install (or clear) a per-dispatch observer.

        The hook fires after the clock advanced, before callbacks run.
        Engine-level tracing only -- it is on the hottest path in the
        whole simulator, so keep the hook trivial.
        """
        self._trace_hook = hook

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling and running --------------------------------------------

    def schedule(
        self,
        event: Event,
        priority: EventPriority = EventPriority.NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Queue ``event`` to be processed ``delay`` units from now."""
        heapq.heappush(
            self._queue, (self._now + delay, int(priority), next(self._eid), event)
        )

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the event queue is exhausted.  A number runs
            until the clock reaches that time.  An :class:`Event` runs until
            the event fires and returns its value.

        An exception raised inside a process propagates out of this call
        at the instant it is raised.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                at = float(until)
                if at <= self._now:
                    # The target time has already been reached: return at
                    # once with the clock untouched (SimPy semantics).
                    # Sweep drivers that compute `until` from accumulated
                    # floats can legally land exactly on the current clock.
                    return None
                stop_event = Event(self)
                stop_event._value = None
                # Urgent so the clock stops *before* events at `at` run.
                self.schedule(stop_event, EventPriority.URGENT, at - self._now)
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(StopSimulation.callback)

        # The heappop/callback cycle runs millions of times per
        # simulation, so bound lookups are hoisted out of it.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                self._now, _, _, event = pop(queue)
                self._steps += 1
                if self._trace_hook is not None:
                    self._trace_hook(self._now, event)

                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
        except StopSimulation as exc:
            return exc.args[0]
        if stop_event is not None:
            raise RuntimeError(
                f"No scheduled events left but {stop_event!r} was not triggered"
            )
        return None

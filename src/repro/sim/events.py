"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence with three lifecycle stages:

1. *untriggered* -- freshly created, not yet scheduled;
2. *triggered* -- given a value and placed on the environment's event
   queue;
3. *processed* -- its callbacks have run and waiting processes resumed.

Processes wait on events by ``yield``-ing them; the kernel resumes the
process with the event's value.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Environment


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same simulation time.

    Lower values run earlier.  ``URGENT`` is used internally for process
    bootstrapping and for :meth:`Environment.run`'s stop at a time, so
    that they take effect before ordinary events scheduled at the same
    instant.
    """

    URGENT = 0
    NORMAL = 1


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot event that processes can wait for.

    Events are triggered exactly once, via :meth:`succeed`.  Once the
    environment pops the event off its queue, the event's callbacks run and
    the event is *processed*.

    Events are the simulator's unit of allocation churn -- every timeout,
    wakeup and process step creates one -- so the whole hierarchy uses
    ``__slots__``.
    """

    __slots__ = ("env", "callbacks", "_value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been given a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's value.  Raises if not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"Value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} object ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts dominate event allocation (every wait in the client model is
    one), so the constructor writes each slot exactly once instead of
    going through :meth:`Event.__init__` and re-assigning.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._delay = delay
        self._value = value
        env.schedule(self, EventPriority.NORMAL, delay)

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout({self._delay}) object at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Any") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        env.schedule(self, EventPriority.URGENT)

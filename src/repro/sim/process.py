"""Generator-based cooperative processes.

A :class:`Process` wraps a Python generator.  Each time the generator
``yield``\\ s an :class:`~repro.sim.events.Event`, the process suspends until
the event is processed; the kernel then resumes the generator with the
event's value.  A process is itself an event that fires when the generator
returns, carrying the generator's return value -- so processes can wait for
each other.

An exception raised inside a process, or a yield of anything but an
:class:`~repro.sim.events.Event`, propagates out of
:meth:`Environment.run <repro.sim.engine.Environment.run>` at the instant
it happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event, Initialize

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

#: Type alias for the generators accepted by :meth:`Environment.process`.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process, awaitable like any other event."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def name(self) -> str:
        """The name of the wrapped generator function."""
        return self._generator.__name__  # type: ignore[attr-defined]

    def _resume(self, event: Event) -> None:
        """Feed ``event``'s value into the generator and run it until it
        waits on an event not yet processed, or returns."""
        while True:
            try:
                event = self._generator.send(event._value)
            except StopIteration as exc:
                self._value = exc.value
                self.env.schedule(self)
                return

            if not isinstance(event, Event):
                raise RuntimeError(
                    f"Process {self.name!r} yielded {event!r}, "
                    "which is not an Event"
                )

            if event.callbacks is not None:
                # Event not yet processed: register and suspend.
                event.callbacks.append(self._resume)
                return

            # Event already processed; feed its value in immediately.

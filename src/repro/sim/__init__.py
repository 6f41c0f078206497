"""Discrete-event simulation kernel.

A self-contained, generator-based discrete-event simulation engine in the
style of SimPy, built from scratch because the reproduction must not depend
on packages that are unavailable offline.  It is exactly what the server,
channel and client processes drive:

* :class:`~repro.sim.engine.Environment` -- the simulation clock, the
  event queue and the run loop (``now``, ``timeout``, ``event``,
  ``process``, ``run``).
* :class:`~repro.sim.events.Event` and :class:`~repro.sim.events.Timeout`
  -- one-shot events, triggered with :meth:`~repro.sim.events.Event.succeed`
  or after a delay.
* :class:`~repro.sim.process.Process` -- cooperative processes written as
  Python generators that ``yield`` events; a process is itself an event
  that fires with the generator's return value.

Events at one instant dispatch in ``(priority, insertion)`` order.  An
exception raised inside a process propagates out of ``run`` at once.

>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, 'fast', 1))
>>> env.run(until=3)
>>> log
[('fast', 1.0), ('fast', 2.0)]
"""

from repro.sim.engine import Environment, StopSimulation
from repro.sim.events import Event, EventPriority, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = [
    "Environment",
    "Event",
    "EventPriority",
    "Process",
    "ProcessGenerator",
    "StopSimulation",
    "Timeout",
]

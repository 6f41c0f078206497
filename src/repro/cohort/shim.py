"""The two-method environment shim that lets discrete client code run
under the cohort driver.

A :class:`~repro.client.machine.BroadcastClient` only ever asks its
environment for two things: ``timeout(delay)`` (sleep) and
``process(gen)`` (start my loop).  The shim answers both without an
event kernel: ``timeout`` returns the absolute wake instant itself, a
float -- computed as ``now + delay`` with exactly the same float
operation the kernel's ``Timeout`` would perform, so wake instants are
bit-identical to the discrete run -- and ``process`` hands the generator
back unstarted for the driver to step.

A client generator yields one of two shapes:

* an instant (a number) -- resume me when the clock reaches it;
* anything else (in practice the :data:`CYCLE_WAIT` sentinel returned by
  ``CohortChannel.cycle_started()``) -- park me until the next installed
  cycle start.

The cohort driver (:mod:`repro.cohort.engine`) interprets exactly these
two cases; no other event type exists on the client side.
"""

from __future__ import annotations


class _CycleWait:
    """Yield token: park until the next cycle-start installation."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CYCLE_WAIT>"


#: Singleton returned by ``CohortChannel.cycle_started()``; identity is
#: all the driver needs (any yield but an instant parks the client).
CYCLE_WAIT = _CycleWait()


class CohortEnv:
    """Per-client clock exposing the environment surface clients use."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def timeout(self, delay: float, value: object = None) -> float:
        # Same float expression as the kernel's Timeout: now + delay.
        return self.now + delay

    def process(self, gen):
        """Return the generator unstarted; the driver steps it."""
        return gen

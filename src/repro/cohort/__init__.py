"""Cohort-client population engine.

Advances whole cohorts of statistically-identical clients cycle by cycle
against the server's broadcast as it streams off the server loop,
instead of scheduling one event-kernel process per client.  The
per-scheme decision rules are the *same objects* as in the discrete
simulation -- ``BroadcastClient``, the ``Scheme`` subclasses, the cache,
the fault pipeline -- driven through a two-method environment shim, so
cohort aggregates match N discrete clients exactly under shared seeds
(pinned by ``python -m repro.oracle cohort``).
"""

from repro.cohort.engine import CohortSimulation

__all__ = ["CohortSimulation"]

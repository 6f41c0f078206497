"""The paper's contribution: read-only transaction processing schemes.

Five protocols ensure that a client query's readset is a subset of a
consistent database state, without ever contacting the server:

* :class:`~repro.core.invalidation.InvalidationOnly` (§3.1) -- abort on
  invalidation; reads are the most current.
* :class:`~repro.core.versioned_cache.InvalidationWithVersionedCache`
  (§4.1) -- instead of aborting, keep going on old-enough cached values.
* :class:`~repro.core.multiversion.MultiversionBroadcast` (§3.2) -- read
  old versions off the air; never aborts while the span fits the
  retention window.
* :class:`~repro.core.sgt.SerializationGraphTesting` (§3.3) -- accept any
  read that keeps the local serialization graph acyclic.
* :class:`~repro.core.multiversion_cache.MultiversionCaching` (§4.2) --
  old versions live in a partitioned client cache instead of on the air.

All schemes share the :class:`~repro.core.base.Scheme` interface and the
:class:`~repro.core.transaction.ReadOnlyTransaction` bookkeeping, and are
driven by :class:`~repro.client.machine.BroadcastClient`.  Two bases
write each rule once: :class:`~repro.core.base.ReportCheckedScheme` keeps
the active queries of every scheme that checks each report (all but
multiversion broadcast and the unsafe baseline) and aborts them all on a
missed one, and :class:`~repro.core.versioned_cache.MarkedQueryScheme`
holds the §4 marking rule, leaving §4.1 and §4.2 only their test of
whether a delivered value is current at ``u - 1`` and their off-air
fallback.
"""

from repro.core.base import ReadAborted, ReadContext, Scheme
from repro.core.control import ControlInfo, InvalidationReport, ReportSchedule
from repro.core.invalidation import Granularity, InvalidationOnly
from repro.core.multiversion import MultiversionBroadcast
from repro.core.multiversion_cache import MultiversionCaching
from repro.core.sgt import SerializationGraphTesting
from repro.core.transaction import ReadOnlyTransaction, TransactionStatus
from repro.core.unsafe import NoConsistency
from repro.core.versioned_cache import InvalidationWithVersionedCache

__all__ = [
    "ControlInfo",
    "Granularity",
    "InvalidationOnly",
    "InvalidationReport",
    "InvalidationWithVersionedCache",
    "MultiversionBroadcast",
    "MultiversionCaching",
    "NoConsistency",
    "ReadAborted",
    "ReadContext",
    "ReadOnlyTransaction",
    "ReportSchedule",
    "Scheme",
    "SerializationGraphTesting",
    "TransactionStatus",
]

"""Client read-only transaction bookkeeping.

A :class:`ReadOnlyTransaction` records what the paper calls ``RS(R)`` --
the set of items read so far with the values obtained -- plus the state
every scheme's validation logic keys off: the first-read cycle ``c0``
(multiversion), the first-invalidation deadline ``c_u`` (versioned cache
and multiversion caching), and the set of cycles touched (the span).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from repro.graph.sgraph import TxnId


class TransactionStatus(enum.Enum):
    """Lifecycle of a client query."""

    ACTIVE = "active"
    #: Invalidated but still salvageable from old-enough versions
    #: (the paper's "marked abort" state of Section 4.1).
    MARKED = "marked"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE = TransactionStatus.ACTIVE
_MARKED = TransactionStatus.MARKED


class AbortReason(enum.Enum):
    """Why an attempt aborted (per-reason counters in the harness)."""

    INVALIDATED = "invalidated"
    VERSION_GONE = "version_gone"
    STALE_CACHE = "stale_cache"
    CYCLE_DETECTED = "cycle_detected"
    DISCONNECTED = "disconnected"
    #: A multi-shard query's touched shards diverged (sharded mode's
    #: epoch-aligned consistency discipline, see :mod:`repro.shard`).
    EPOCH_MISMATCH = "epoch_mismatch"


@dataclass(slots=True)
class ReadResult:
    """One completed read: the value and its provenance."""

    item: int
    value: int
    #: Broadcast cycle at whose beginning this value became current.
    version: int
    #: Broadcast cycle the read was satisfied in.
    read_cycle: int
    writer: Optional[TxnId] = None
    from_cache: bool = False


@dataclass
class ReadOnlyTransaction:
    """The client-local state of one query attempt."""

    txn_id: str
    items: Sequence[int]
    status: TransactionStatus = TransactionStatus.ACTIVE
    #: ``c0`` -- cycle of the first read (multiversion serialization point).
    first_read_cycle: Optional[int] = None
    #: ``c_u`` -- first cycle whose report invalidated an item we read; the
    #: transaction may only continue on values current at ``deadline - 1``.
    deadline: Optional[int] = None
    abort_reason: Optional[AbortReason] = None
    #: Machine-readable history of why the attempt went wrong: every
    #: ``mark()`` and ``abort()`` appends an entry, so an aborted attempt
    #: always carries the full cause chain (e.g. the invalidation that
    #: marked it, then the stale-cache read that killed it, then the
    #: terminal abort record).  The tracer ships this verbatim.
    cause_chain: List[Dict[str, Any]] = field(default_factory=list)
    reads: Dict[int, ReadResult] = field(default_factory=dict)
    cycles_touched: Set[int] = field(default_factory=set)
    start_time: float = 0.0
    end_time: Optional[float] = None
    start_cycle: int = 0
    end_cycle: Optional[int] = None

    # -- queries ----------------------------------------------------------

    @property
    def readset(self) -> FrozenSet[int]:
        """``RS(R)``: items read so far."""
        return frozenset(self.reads)

    @property
    def is_active(self) -> bool:
        return self.status in (TransactionStatus.ACTIVE, TransactionStatus.MARKED)

    @property
    def is_marked(self) -> bool:
        return self.status is TransactionStatus.MARKED

    @property
    def span(self) -> int:
        """Number of distinct cycles data was read from."""
        return len(self.cycles_touched)

    @property
    def remaining(self) -> List[int]:
        return [item for item in self.items if item not in self.reads]

    # -- transitions -------------------------------------------------------

    def record_read(self, result: ReadResult) -> None:
        # Identity tests, inline: no property call, and no set lookup,
        # which would hash the member through Python-level Enum.__hash__.
        status = self.status
        if status is not _ACTIVE and status is not _MARKED:
            raise RuntimeError(f"{self.txn_id}: read on a finished transaction")
        self.reads[result.item] = result
        self.cycles_touched.add(result.read_cycle)
        if self.first_read_cycle is None:
            self.first_read_cycle = result.read_cycle

    def mark(
        self, deadline: int, cause: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Enter the "marked abort" state with invalidation cycle
        ``deadline`` (only the first invalidation counts)."""
        if self.status is TransactionStatus.ACTIVE:
            self.status = TransactionStatus.MARKED
            self.deadline = deadline
            if cause is not None:
                self.cause_chain.append(dict(cause))

    def commit(self, time: float, cycle: int) -> None:
        if not self.is_active:
            raise RuntimeError(f"{self.txn_id}: commit on a finished transaction")
        self.status = TransactionStatus.COMMITTED
        self.end_time = time
        self.end_cycle = cycle

    def abort(
        self,
        reason: AbortReason,
        time: float,
        cycle: int,
        cause: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if self.status is TransactionStatus.COMMITTED:
            raise RuntimeError(f"{self.txn_id}: abort after commit")
        self.status = TransactionStatus.ABORTED
        self.abort_reason = reason
        self.end_time = time
        self.end_cycle = cycle
        terminal: Dict[str, Any] = dict(cause) if cause is not None else {}
        terminal.setdefault("event", "abort")
        terminal.setdefault("reason", reason.value)
        terminal.setdefault("cycle", cycle)
        self.cause_chain.append(terminal)

    @property
    def latency_cycles(self) -> int:
        """Cycles from first activity to completion, inclusive."""
        if self.end_cycle is None:
            raise RuntimeError(f"{self.txn_id} has not finished")
        return self.end_cycle - self.start_cycle + 1

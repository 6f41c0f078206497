"""The scheme interface shared by every read-only processing protocol.

A scheme is purely client-local logic: it sees the control information at
the start of each broadcast cycle (:meth:`Scheme.on_cycle_start`), mediates
every read (:meth:`Scheme.read`, a simulation sub-process that may wait on
the channel or consult the cache), and validates the final commit
(:meth:`Scheme.finish`).  It *never* talks to the server -- that is the
paper's scalability property, and the test suite asserts it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, Generator, List, Mapping, Optional, Tuple,
)

from repro.broadcast.program import BroadcastProgram, ItemRecord
from repro.core.control import BroadcastRequirements
from repro.core.transaction import AbortReason, ReadOnlyTransaction, ReadResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.client.machine import ClientRuntime


class ReadAborted(Exception):
    """Raised inside :meth:`Scheme.read` when the attempt must abort.

    ``cause`` is an optional machine-readable record of what doomed the
    read (item, cycle, writer, ...); the client machine appends it to
    the transaction's cause chain so traced aborts are attributable.
    """

    def __init__(
        self,
        reason: AbortReason,
        detail: str = "",
        cause: Optional[Mapping[str, Any]] = None,
    ) -> None:
        super().__init__(detail or reason.value)
        self.reason = reason
        self.cause = dict(cause) if cause is not None else None


class ReadContext:
    """Everything a scheme may touch, handed over by the client machine.

    Deliberately narrow: the channel (listen only), the local cache, the
    simulation clock.  No server handle exists, by construction.  The
    runtime's fields are copied once, into plain slots, so a read pays
    no property hop for them; ``current_cycle`` asks the channel.
    """

    __slots__ = ("_runtime", "env", "channel", "cache", "metrics")

    def __init__(self, runtime: "ClientRuntime") -> None:
        self._runtime = runtime
        self.env = runtime.env
        self.channel = runtime.channel
        self.cache = runtime.cache
        self.metrics = runtime.metrics

    @property
    def current_cycle(self) -> int:
        return self.channel.current_cycle


class Scheme:
    """Base class for the read-only transaction processing protocols."""

    #: Human-readable scheme name used in result tables.
    name: str = "abstract"

    def __init__(self, use_cache: bool = True) -> None:
        self.use_cache = use_cache
        self._ctx: Optional[ReadContext] = None

    # -- wiring ------------------------------------------------------------

    def requirements(self) -> BroadcastRequirements:
        """What this scheme needs the server to broadcast."""
        return BroadcastRequirements()

    def attach(self, ctx: ReadContext) -> None:
        """Bind the scheme to one client's runtime context."""
        self._ctx = ctx

    @property
    def ctx(self) -> ReadContext:
        if self._ctx is None:
            raise RuntimeError(f"Scheme {self.name} is not attached to a client")
        return self._ctx

    @property
    def label(self) -> str:
        """Name qualified with the cache setting, for result tables."""
        return f"{self.name}+cache" if self.use_cache else self.name

    # -- protocol hooks -----------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        """Process the control segment of a new broadcast cycle."""

    def on_interim_report(self, report) -> None:
        """A mid-cycle invalidation report arrived (§7's sub-cycle
        extension).

        ``report.cycle`` is the cycle at whose *start* the announced
        updates become visible (the current cycle + 1): the broadcast
        values of the current cycle are unaffected.  Default: ignore --
        the main report at the next cycle start covers everything.
        """

    def on_missed_cycle(self, cycle: int) -> None:
        """The client was disconnected during ``cycle`` and heard nothing.

        Default: no protocol state to lose.  Schemes that depend on hearing
        every report derive from :class:`ReportCheckedScheme`, which dooms
        their active transactions (Section 5.2.2, Table 1 last row).
        """

    def begin(self, txn: ReadOnlyTransaction) -> None:
        """A new query attempt starts."""

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        """Simulation sub-process performing one read.

        Returns the :class:`ReadResult` or raises :class:`ReadAborted`.
        """
        raise NotImplementedError

    def finish(self, txn: ReadOnlyTransaction) -> None:
        """Final commit-time validation; raises :class:`ReadAborted` to
        reject.  Default: queries that survived every per-cycle check
        commit."""

    def end(self, txn: ReadOnlyTransaction) -> None:
        """Called after the attempt terminated (committed or aborted), for
        schemes holding per-transaction state (SGT node cleanup)."""

    # -- checkpoint / recovery hooks (see repro.resilience) -------------------

    def export_state(self) -> Optional[Mapping[str, Any]]:
        """Checkpointable cross-cycle control state, or ``None``.

        Called at checkpoint instants (cycle starts, after the scheme
        processed the control segment).  The returned mapping must be
        self-contained: live structures are copied, never aliased.
        Default: the scheme holds nothing worth checkpointing.
        """
        return None

    def restore_state(
        self, state: Mapping[str, Any], cycles_missed: int
    ) -> None:
        """Restore exported state after a crash-restart.

        ``cycles_missed`` is the number of broadcast cycles between the
        checkpoint and the restart that the client never heard.  Schemes
        whose state cannot survive a gap (SGT: missed graph diffs mean
        missing edges, which could wrongly *accept* reads) must discard
        the stale part rather than trust it.  Default: nothing to do.
        """

    def reset_state(self) -> None:
        """A crash wiped the client's memory: drop all cross-cycle
        control state, as if freshly constructed.  Per-transaction state
        drains through :meth:`end` when the machine aborts the active
        attempt.  Default: nothing held."""

    def state_cycle(self, txn: ReadOnlyTransaction) -> Optional[int]:
        """The broadcast cycle whose database state a *committed* ``txn``'s
        readset corresponds to -- the currency measure of Table 1.

        ``None`` when the scheme cannot pin a single cycle (SGT serializes
        somewhere between the first and the last operation).
        """
        return None

    # -- shared helpers -------------------------------------------------------

    def _read_current(
        self, item: int
    ) -> Generator[object, object, Tuple[ItemRecord, int, bool]]:
        """Shared read path for current values: cache first, else air.

        Returns ``(record, read_cycle, from_cache)``.  A value read off
        the air is inserted into the cache (demand caching); a hit hands
        back the very record the cache was given.
        """
        ctx = self._ctx
        cache = ctx.cache if self.use_cache else None
        if cache is not None:
            record = cache.get_current(item, ctx.env.now)
            if record is not None:
                return (record, ctx.current_cycle, True)
        record, cycle = yield from ctx.channel.await_item(item)
        if cache is not None:
            cache.insert_current(record)
        return (record, cycle, False)

    def _result_from_record(
        self,
        record: ItemRecord,
        read_cycle: int,
        from_cache: bool,
    ) -> ReadResult:
        # Positional, as ReadResult declares them: once per read, and
        # keyword parsing would cost as much again as the construction.
        return ReadResult(
            record.item, record.value, record.version, read_cycle,
            record.writer, from_cache,
        )


class ReportCheckedScheme(Scheme):
    """A scheme that validates its active queries against every
    invalidation report: invalidation-only, SGT and the two §4 schemes.

    It keeps the active queries by id, and a missed report dooms every
    one of them (Table 1: no tolerance to disconnections).
    """

    def __init__(self, use_cache: bool = True) -> None:
        super().__init__(use_cache=use_cache)
        self._active: Dict[str, ReadOnlyTransaction] = {}

    def begin(self, txn: ReadOnlyTransaction) -> None:
        self._active[txn.txn_id] = txn

    def end(self, txn: ReadOnlyTransaction) -> None:
        self._active.pop(txn.txn_id, None)

    def on_missed_cycle(self, cycle: int) -> None:
        # Without the report there is no way to validate: every active
        # query dies.
        self._doom_active(cycle)

    def _doom_active(self, cycle: int) -> List[ReadOnlyTransaction]:
        """Abort every active query for missing ``cycle``; the doomed."""
        doomed = [txn for txn in self._active.values() if txn.is_active]
        for txn in doomed:
            txn.abort(
                AbortReason.DISCONNECTED,
                self.ctx.env.now,
                cycle,
                cause={"event": "missed_cycle", "missed_cycle": cycle},
            )
        return doomed

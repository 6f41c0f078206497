"""Invalidation-only with versioned cache (Section 4.1, Theorem 4).

The enhancement over plain invalidation-only: when the first invalidation
report hits a query ``R`` at cycle ``u``, ``R`` is *marked* instead of
aborted.  It may then finish, provided every remaining read can be served
by a cached value that was current at cycle ``u - 1``.  The committed
readset equals the database state ``DS^{u-1}`` -- slightly less current
than plain invalidation-only, in exchange for far fewer aborts.

The cache tracks, per entry, the interval of cycles its value was current
for (see :class:`~repro.client.cache.ClientCache`); "old enough" is the
interval-containment test the proof of Theorem 4 quantifies over.

:class:`MarkedQueryScheme` holds the marking rule both §4 schemes share;
multiversion caching (§4.2) differs only where Theorem 5 differs from
Theorem 4: version numbers ride on the air.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.broadcast.program import BroadcastProgram, ItemRecord
from repro.core.base import ReadAborted, ReportCheckedScheme
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    ReadResult,
    TransactionStatus,
)


class MarkedQueryScheme(ReportCheckedScheme):
    """§4's rule: the first invalidation marks a query with deadline
    ``u``, and every later read must be current at ``u - 1``.

    A subclass says when a value delivered off the air is still current
    at that target (:meth:`_current_at`) and where a marked read goes when
    no cached value covers the target (:meth:`_off_air`).
    """

    def __init__(self) -> None:
        # The whole point of the scheme is the cache; it is mandatory.
        super().__init__(use_cache=True)

    @property
    def label(self) -> str:
        return self.name

    # -- protocol -------------------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        self._mark_invalidated(program.control.invalidation)

    def on_interim_report(self, report) -> None:
        """Sub-cycle reports (§7): mark affected queries immediately.

        ``report.cycle`` equals the deadline the next main report would
        set, so marking early changes no value read -- it only lets the
        query switch to the old-value path (and detect a hopeless cache)
        sooner.
        """
        self._mark_invalidated(report, interim=True)

    def _mark_invalidated(self, report, interim: bool = False) -> None:
        """First invalidation: mark, do not abort (Section 4.1)."""
        for txn in self._active.values():
            if txn.status is not TransactionStatus.ACTIVE:
                continue
            if report.updated_items.isdisjoint(txn.reads):
                continue
            hit = report.invalidates(txn.readset)
            if hit:
                cause = {
                    "event": "invalidation",
                    "report_cycle": report.cycle,
                    "items": sorted(hit),
                    "terminal": False,
                }
                if interim:
                    cause["interim"] = True
                txn.mark(deadline=report.cycle, cause=cause)

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        if not txn.is_marked:
            record, cycle, from_cache = yield from self._read_current(item)
            # A query marked while it waited on the channel keeps the
            # delivered value only if it is still current at the target.
            if not txn.is_marked or self._current_at(
                record, cycle, txn.deadline - 1
            ):
                return self._result_from_record(record, cycle, from_cache)
        result = yield from self._read_marked(txn, item)
        return result

    def _read_marked(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        """Serve a read for a marked query: a value current at
        ``deadline - 1``, from the cache or :meth:`_off_air`; otherwise
        abort."""
        ctx = self.ctx
        target = txn.deadline - 1
        record = ctx.cache.get_covering(item, target, ctx.env.now)
        if record is not None:
            return self._result_from_record(record, ctx.current_cycle, True)
        result = yield from self._off_air(item, target)
        if result is not None:
            return result
        raise ReadAborted(
            AbortReason.STALE_CACHE,
            f"{txn.txn_id}: no value of item {item} current at cycle "
            f"{target} is obtainable",
            cause={
                "event": "stale_cache",
                "item": item,
                "target_cycle": target,
            },
        )

    def _current_at(self, record: ItemRecord, cycle: int, target: int) -> bool:
        """Whether ``record``, delivered in ``cycle``, is current at
        ``target``."""
        raise NotImplementedError

    def _off_air(
        self, item: int, target: int
    ) -> Generator[object, object, Optional[ReadResult]]:
        """A value of ``item`` current at ``target`` that the cache did not
        hold, or ``None`` when none is obtainable.  By default, the value
        the broadcast delivers next, if it is current at ``target``."""
        ctx = self.ctx
        record, cycle = yield from ctx.channel.await_item(item)
        if self._current_at(record, cycle, target):
            ctx.cache.insert_current(record)
            return self._result_from_record(record, cycle, False)
        return None

    def state_cycle(self, txn: ReadOnlyTransaction):
        # Theorems 4 and 5: DS^{u-1} once marked, else the most current
        # state.
        if txn.deadline is not None:
            return txn.deadline - 1
        return txn.end_cycle


class InvalidationWithVersionedCache(MarkedQueryScheme):
    """Marked-abort processing: continue on old-enough cached values."""

    name = "inval-versioned-cache"

    def attach(self, ctx) -> None:
        super().attach(ctx)
        if ctx.cache is None:
            raise RuntimeError(f"{self.name} requires a client cache")

    def _current_at(self, record: ItemRecord, cycle: int, target: int) -> bool:
        # Versions are not on the air: only a value delivered during the
        # target cycle itself is known to belong to the target state.
        return cycle == target

    def _off_air(self, item: int, target: int):
        # The target cycle is still on the air only when an interim report
        # marked the query.
        ctx = self.ctx
        if ctx.current_cycle > target:
            return None
        result = yield from super()._off_air(item, target)
        if result is not None:
            return result
        # Delivered only in a later cycle; last chance via the cache (the
        # autoprefetched old value may still cover the target).
        record = ctx.cache.get_covering(item, target, ctx.env.now)
        if record is not None:
            return self._result_from_record(record, ctx.current_cycle, True)
        return None

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
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.broadcast.program import BroadcastProgram
from repro.core.base import ReadAborted, Scheme
from repro.core.control import BroadcastRequirements
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    ReadResult,
    TransactionStatus,
)


def _mark_cause(report, hit, interim: bool = False):
    """Cause-chain entry for the first invalidation that marks a query."""
    cause = {
        "event": "invalidation",
        "report_cycle": report.cycle,
        "items": sorted(hit),
        "terminal": False,
    }
    if interim:
        cause["interim"] = True
    return cause


class InvalidationWithVersionedCache(Scheme):
    """Marked-abort processing: continue on old-enough cached values."""

    name = "inval-versioned-cache"

    def __init__(self) -> None:
        # The whole point of the scheme is the cache; it is mandatory.
        super().__init__(use_cache=True)
        self._active: Dict[str, ReadOnlyTransaction] = {}

    def requirements(self) -> BroadcastRequirements:
        return BroadcastRequirements()

    @property
    def label(self) -> str:
        return self.name

    def attach(self, ctx) -> None:
        super().attach(ctx)
        if ctx.cache is None:
            raise RuntimeError(f"{self.name} requires a client cache")

    # -- protocol -------------------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        report = program.control.invalidation
        for txn in self._active.values():
            if txn.status is not TransactionStatus.ACTIVE:
                continue
            hit = report.invalidates(txn.readset)
            if hit:
                # First invalidation: mark, do not abort (Section 4.1).
                txn.mark(deadline=report.cycle, cause=_mark_cause(report, hit))

    def on_interim_report(self, report) -> None:
        """Sub-cycle reports (§7): mark affected queries immediately.

        ``report.cycle`` equals the deadline the next main report would
        set, so marking early is behaviour-preserving for the values read
        -- it only lets the query switch to the old-value path (and detect
        a hopeless cache) sooner.
        """
        for txn in self._active.values():
            if txn.status is not TransactionStatus.ACTIVE:
                continue
            hit = report.invalidates(txn.readset)
            if hit:
                txn.mark(
                    deadline=report.cycle,
                    cause=_mark_cause(report, hit, interim=True),
                )

    def on_missed_cycle(self, cycle: int) -> None:
        for txn in list(self._active.values()):
            if txn.is_active:
                txn.abort(
                    AbortReason.DISCONNECTED,
                    self.ctx.env.now,
                    cycle,
                    cause={"event": "missed_cycle", "missed_cycle": cycle},
                )

    def begin(self, txn: ReadOnlyTransaction) -> None:
        self._active[txn.txn_id] = txn

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        while True:
            if txn.is_marked:
                result = yield from self._read_marked(txn, item)
                return result
            record, cycle, from_cache = yield from self._read_current(item)
            if txn.is_marked and not from_cache:
                if txn.deadline is not None and cycle == txn.deadline - 1:
                    # Marked mid-wait by an *interim* report: the value
                    # just delivered still belongs to the target state.
                    return self._result_from_record(record, cycle, from_cache)
                # Marked by a cycle-start report: the delivered value is
                # from a cycle at or past the deadline and versions are
                # not on the air in this scheme -- retry via the cache.
                continue
            return self._result_from_record(record, cycle, from_cache)

    def _read_marked(self, txn: ReadOnlyTransaction, item: int):
        """Serve a read for a marked query: a value current at
        ``deadline - 1``, from the cache or (while the target cycle is
        still on the air -- possible only with interim marking) from the
        broadcast; otherwise abort."""
        ctx = self.ctx
        assert txn.deadline is not None
        target = txn.deadline - 1

        entry = ctx.cache.get_covering(item, target, ctx.env.now)
        if entry is not None:
            return self._result_from_record(entry.record, ctx.current_cycle, True)

        if ctx.current_cycle <= target:
            record, cycle = yield from ctx.channel.await_item(item)
            if cycle == target:
                ctx.cache.insert_current(record, ctx.env.now)
                return self._result_from_record(record, cycle, False)
            # Delivered only in a later cycle; last chance via the cache
            # (the autoprefetched old value may still cover the target).
            entry = ctx.cache.get_covering(item, target, ctx.env.now)
            if entry is not None:
                return self._result_from_record(
                    entry.record, ctx.current_cycle, True
                )

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

    def state_cycle(self, txn: ReadOnlyTransaction):
        # Theorem 4: DS^{u-1} once marked, else the most current state.
        if txn.deadline is not None:
            return txn.deadline - 1
        return txn.end_cycle

    def end(self, txn: ReadOnlyTransaction) -> None:
        self._active.pop(txn.txn_id, None)

"""Multiversion caching (Section 4.2, Theorem 5).

Old versions live in the *client cache* instead of on the air: when a
cached item is updated, its entry is demoted into a dedicated old-version
partition rather than replaced.  A query ``R`` runs like invalidation-only
until the first report hits it at cycle ``c_u``; from then on every
remaining read must produce the value that was current at ``c_u - 1`` --
from the cache if a covering version is held, or straight off the
broadcast when the item has not been updated since (version numbers are
broadcast with items in this scheme, so the client can tell).

Compared with multiversion *broadcast*, the retention horizon ``S`` is a
per-client property (its cache partition) rather than a server property,
and no bandwidth is spent on old versions -- Table 1's trade-off row.
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


class MultiversionCaching(Scheme):
    """Invalidation reports + versioned values kept in a partitioned cache."""

    name = "multiversion-caching"

    def __init__(self) -> None:
        super().__init__(use_cache=True)
        self._active: Dict[str, ReadOnlyTransaction] = {}

    def requirements(self) -> BroadcastRequirements:
        # Version numbers ride with the items (the paper: "the increase in
        # the broadcast size is that of the invalidation-only method plus
        # the additional space needed to broadcast version numbers").
        return BroadcastRequirements(needs_versions_on_items=True)

    @property
    def label(self) -> str:
        return self.name

    def attach(self, ctx) -> None:
        super().attach(ctx)
        if ctx.cache is None or not ctx.cache.multiversion:
            raise RuntimeError(
                f"{self.name} requires a cache with an old-version partition"
            )

    # -- protocol ---------------------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        report = program.control.invalidation
        for txn in self._active.values():
            if txn.status is not TransactionStatus.ACTIVE:
                continue
            hit = report.invalidates(txn.readset)
            if hit:
                txn.mark(deadline=report.cycle, cause=_mark_cause(report, hit))

    def on_interim_report(self, report) -> None:
        """Sub-cycle reports (§7): mark at the interval, not the cycle.

        The broadcast fallback of :meth:`_read_marked` already validates
        versions explicitly, so earlier marking is purely beneficial.
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
        # Partially tolerated in principle (versions are broadcast), but a
        # missed report can hide the *first* invalidation, which fixes the
        # serialization point; be safe and abort, as the base paper does
        # for the invalidation-driven schemes.
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
                # Marked while waiting on the channel; versions are on the
                # air here, so the delivered value may still qualify.
                assert txn.deadline is not None
                if record.version <= txn.deadline - 1:
                    return self._result_from_record(record, cycle, from_cache)
                continue  # retry through the marked path
            return self._result_from_record(record, cycle, from_cache)

    def _read_marked(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        ctx = self.ctx
        assert txn.deadline is not None
        target = txn.deadline - 1

        entry = ctx.cache.get_covering(item, target, ctx.env.now)
        if entry is not None:
            return self._result_from_record(entry.record, ctx.current_cycle, True)

        # Not cached: the broadcast current value qualifies iff the item
        # has not been updated since the deadline (checkable because the
        # version number is broadcast with the item).
        record, cycle = yield from ctx.channel.await_item(item)
        if record.version <= target:
            ctx.cache.insert_current(record, ctx.env.now)
            return self._result_from_record(record, cycle, False)
        raise ReadAborted(
            AbortReason.STALE_CACHE,
            f"{txn.txn_id}: no version of item {item} current at cycle "
            f"{target} is cached, and the item has been updated since",
            cause={
                "event": "stale_cache",
                "item": item,
                "target_cycle": target,
            },
        )

    def state_cycle(self, txn: ReadOnlyTransaction):
        # Theorem 5: DS^{c_u - 1} once invalidated, else the current state.
        if txn.deadline is not None:
            return txn.deadline - 1
        return txn.end_cycle

    def end(self, txn: ReadOnlyTransaction) -> None:
        self._active.pop(txn.txn_id, None)

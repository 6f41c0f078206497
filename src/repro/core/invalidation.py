"""The invalidation-only method (Section 3.1).

The simplest protocol: the client keeps ``RS(R)`` for every active query
``R`` and tunes in at each cycle start for the invalidation report.  If
any item ``R`` has read was updated during the previous cycle, ``R`` is
aborted; otherwise ``R`` keeps reading the most current values.  Theorem 1:
a committed query's readset equals the database state broadcast during the
cycle of its last read -- the *most current* of all the schemes.

The bucket-granularity variant (Section 7) coarsens the check: a query is
aborted when any *page* it has read from was updated, trading false aborts
for a smaller report.
"""

from __future__ import annotations

import enum
from typing import Dict, Generator

from repro.broadcast.program import BroadcastProgram
from repro.core.base import ReportCheckedScheme
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    ReadResult,
)


class Granularity(enum.Enum):
    """Granularity of the invalidation check."""

    ITEM = "item"
    BUCKET = "bucket"


class InvalidationOnly(ReportCheckedScheme):
    """Abort-on-invalidation processing of read-only transactions."""

    name = "invalidation-only"

    def __init__(
        self,
        use_cache: bool = False,
        granularity: Granularity = Granularity.ITEM,
    ) -> None:
        super().__init__(use_cache=use_cache)
        self.granularity = granularity
        #: item -> logical page, learned from the broadcast layout.
        self._page_of: Dict[int, int] = {}

    @property
    def label(self) -> str:
        suffix = "+cache" if self.use_cache else ""
        grain = "/bucket" if self.granularity is Granularity.BUCKET else ""
        return f"{self.name}{grain}{suffix}"

    # -- protocol ------------------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        if self.granularity is Granularity.BUCKET:
            for item in program.items:
                self._page_of[item] = program.page_of(item)
        self._abort_invalidated(program.control.invalidation, program.cycle)

    def on_interim_report(self, report) -> None:
        """Sub-cycle reports (§7): learn about invalidations within ``h``
        instead of a full cycle.

        Doomed queries abort immediately and retry sooner.  In the paper's
        variant the broadcast values also advance per interval, making the
        abort mandatory; our data stay fixed per cycle, so this is
        (slightly) pessimistic -- a query that would have finished within
        the current cycle is killed early.  The fig5 ablation bench
        measures the trade.
        """
        self._abort_invalidated(report, self.ctx.current_cycle, interim=True)

    def _abort_invalidated(self, report, cycle: int, interim: bool = False):
        """Abort, at ``cycle``, every active query ``report`` invalidates."""
        for txn in self._active.values():
            if not txn.is_active:
                continue
            hit = self._invalidated(txn, report)
            if hit:
                grain = self.granularity is Granularity.BUCKET
                cause = {
                    "event": "invalidation",
                    "report_cycle": report.cycle,
                    ("pages" if grain else "items"): sorted(hit),
                }
                if interim:
                    cause["interim"] = True
                txn.abort(
                    AbortReason.INVALIDATED, self.ctx.env.now, cycle, cause=cause
                )

    def _invalidated(self, txn, report) -> frozenset:
        """The invalidated items (or pages) of ``txn``; empty = survives."""
        if self.granularity is Granularity.ITEM:
            # Nearly every query survives: ask before building any set.
            if report.updated_items.isdisjoint(txn.reads):
                return frozenset()
            return report.invalidates(txn.readset)
        pages = frozenset(
            self._page_of[item] for item in txn.readset if item in self._page_of
        )
        return report.invalidates_buckets(pages)

    # -- checkpoint / recovery (see repro.resilience) -------------------------

    def export_state(self):
        """The learned item->page layout (bucket granularity only)."""
        if not self._page_of:
            return None
        return {"page_of": dict(self._page_of)}

    def restore_state(self, state, cycles_missed: int) -> None:
        # Safe across any gap: the layout is re-learned from the program
        # at every heard cycle start, before any query consults it.
        self._page_of.update(state["page_of"])

    def reset_state(self) -> None:
        self._page_of.clear()

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        record, cycle, from_cache = yield from self._read_current(item)
        return self._result_from_record(record, cycle, from_cache)

    def state_cycle(self, txn: ReadOnlyTransaction):
        # Theorem 1: the state broadcast during the cycle of the last read.
        return txn.end_cycle

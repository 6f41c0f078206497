"""The multiversion broadcast method (Section 3.2, Theorem 2).

The server keeps the last ``S`` versions of every item on the air.  A
query ``R`` whose first read happened at cycle ``c0`` subsequently reads,
for every item, the largest version not exceeding ``c0`` -- i.e. exactly
the state ``DS^{c0}``.  ``R`` is serialized *before* every transaction
that committed after ``c0``: maximal concurrency (no aborts while the
span fits the retention window) at the price of the oldest currency of
all the schemes.

Two physical organizations (Figure 2) are supported by the program
builder; the *overflow* one keeps item positions fixed but makes queries
that need old versions wait for the end of the bcast -- the latency
penalty Figure 8 measures.
"""

from __future__ import annotations

from typing import Generator

from repro.core.base import ReadAborted, Scheme
from repro.core.control import BroadcastRequirements
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    ReadResult,
)


class MultiversionBroadcast(Scheme):
    """Read old versions off the air; serialize at the first-read cycle."""

    name = "multiversion"

    def __init__(
        self,
        use_cache: bool = False,
        organization: str = "overflow",
    ) -> None:
        super().__init__(use_cache=use_cache)
        if organization not in ("overflow", "clustered"):
            raise ValueError(f"Unknown multiversion organization {organization!r}")
        self.organization = organization

    def requirements(self) -> BroadcastRequirements:
        return BroadcastRequirements(
            needs_old_versions=True,
            organization=self.organization,
            needs_versions_on_items=True,
        )

    @property
    def label(self) -> str:
        suffix = "+cache" if self.use_cache else ""
        return f"{self.name}/{self.organization}{suffix}"

    # -- protocol --------------------------------------------------------------
    #
    # No on_cycle_start logic at all: invalidation reports never abort a
    # multiversion query, and a client may even sleep through cycles
    # (Table 1's disconnection-tolerance row) -- it only loses if the
    # version it needs ages off the air meanwhile.  Reads are validated
    # against explicit version numbers, so a missed report loses nothing.

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        ctx = self.ctx
        if txn.first_read_cycle is None:
            # First read: the most up-to-date value, fixing c0.
            record, cycle, from_cache = yield from self._read_current(item)
            return self._result_from_record(record, cycle, from_cache)

        c0 = txn.first_read_cycle
        if self.use_cache and ctx.cache is not None:
            cached = ctx.cache.get_covering(item, c0, ctx.env.now)
            if cached is not None:
                return self._result_from_record(
                    cached, ctx.current_cycle, from_cache=True
                )

        record, found, valid_to = yield from ctx.channel.await_old_version(item, c0)
        if not found:
            raise ReadAborted(
                AbortReason.VERSION_GONE,
                f"{txn.txn_id}: version of item {item} at cycle {c0} is no "
                "longer on the air (span exceeded the retention window)",
                cause={
                    "event": "version_overwritten",
                    "item": item,
                    "needed_cycle": c0,
                },
            )
        if self.use_cache and ctx.cache is not None:
            if valid_to is None:
                ctx.cache.insert_current(record)
            else:
                ctx.cache.insert_old(record, valid_to)
        return self._result_from_record(
            record, ctx.channel.current_cycle, from_cache=False
        )

    def state_cycle(self, txn: ReadOnlyTransaction):
        # Theorem 2: the state at the beginning of the first-read cycle.
        return txn.first_read_cycle

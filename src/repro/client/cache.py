"""The client cache: LRU with invalidation + autoprefetch, and versions.

Section 4 of the paper builds three cache behaviours on one substrate:

* the plain cache -- entries are invalidated by the per-cycle report and
  *autoprefetched*: the stale value stays in place (still answering
  old-enough version queries) until the new value flies by, at which
  point it is replaced;
* the *versioned* cache (§4.1) -- every entry remembers which cycles its
  value was current for, so a marked-abort query can keep reading values
  that were current at its deadline;
* the *multiversion* cache (§4.2) -- updated entries are demoted into a
  separate old-version partition instead of being replaced, with the two
  partitions evicting independently.

Validity is tracked as an interval ``[version, valid_to]`` of broadcast
cycles (``valid_to is None`` meaning "still current"), which is exactly
the information the correctness proofs of Theorems 4 and 5 quantify over.

A held current value is its :class:`ItemRecord` alone, in a dict kept
in LRU order by re-inserting a key; a side map holds the ``valid_to``
of the few a report superseded whose refresh has not landed.  A
:class:`CacheEntry` pairs a record with its interval where the two must
travel together: in the old-version partition and in checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.broadcast.program import BroadcastProgram, ItemRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.channel import BroadcastChannel


@dataclass(slots=True)
class CacheEntry:
    """One cached record with its validity interval.

    Built for an old version (multiversion partition) and for each
    value a checkpoint carries; the current partition keeps bare
    records.
    """

    record: ItemRecord
    #: Last cycle the value was current for; ``None`` = still current.
    valid_to: Optional[int]

    @property
    def item(self) -> int:
        return self.record.item

    @property
    def version(self) -> int:
        """Broadcast cycle at whose beginning the value became current."""
        return self.record.version

    def covers(self, cycle: int) -> bool:
        """Was this value the current one at ``cycle``?"""
        if cycle < self.record.version:
            return False
        return self.valid_to is None or cycle <= self.valid_to


@dataclass(slots=True)
class _PendingRefresh:
    """An autoprefetch in flight: the new value and when it lands."""

    record: ItemRecord
    at_time: float


class ClientCache:
    """LRU cache over items with autoprefetch and optional old versions.

    Parameters
    ----------
    capacity:
        Total entries (the paper's ``CacheSize``).
    old_capacity:
        Entries reserved for demoted old versions (multiversion caching);
        the current partition holds ``capacity - old_capacity``.  With 0,
        updated values are *replaced* on autoprefetch (the plain/versioned
        cache of §4.1).
    """

    def __init__(self, capacity: int, old_capacity: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= old_capacity < capacity:
            raise ValueError(
                f"old_capacity must be in [0, capacity), got {old_capacity}"
            )
        self.capacity = capacity
        self.old_capacity = old_capacity
        #: Plain fields, read once or twice per cache operation.
        self.multiversion = old_capacity > 0
        self.current_capacity = capacity - old_capacity
        #: Degradation controls (repro.resilience): with autoprefetch off
        #: the report still invalidates entries but no refresh is armed;
        #: bypassed, every lookup misses and every insert is dropped.
        self.autoprefetch_enabled = True
        self.bypass = False
        #: Current values, item -> record, LRU order (least recent
        #: first): a use re-inserts its key at the end.
        self._current: Dict[int, ItemRecord] = {}
        #: item -> ``valid_to`` of a held value that is no longer current
        #: and whose refresh has not landed; every key is in ``_current``.
        self._stale: Dict[int, int] = {}
        #: Old versions, LRU order likewise, keyed by (item, version).
        self._old: Dict[Tuple[int, int], CacheEntry] = {}
        self._pending: Dict[int, _PendingRefresh] = {}
        #: A lower bound on every pending landing time: until the clock
        #: reaches it, no autoprefetch can materialize.
        self._due = math.inf
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._current) + len(self._old)

    # -- report handling (cycle start) --------------------------------------

    def handle_cycle_start(
        self, program: BroadcastProgram, channel: "BroadcastChannel"
    ) -> None:
        """Apply the invalidation report and arm autoprefetches.

        Must be called at the cycle-start instant, before any reads of the
        new cycle.  Matured autoprefetches from the previous cycle are
        materialized first.

        With autoprefetch disabled (degradation ladder), the report still
        invalidates entries -- exactly like a w-window catch-up report --
        but nothing is armed: the next demand read refreshes off the air.
        """
        if not self.autoprefetch_enabled:
            self._pending.clear()
            self.apply_missed_report(program.control.invalidation)
            return
        self._materialize(channel.env.now)
        report = program.control.invalidation
        current, stale, pending = self._current, self._stale, self._pending
        # Only items the client holds (a value or a refresh in flight)
        # are touched: intersect in C, then visit them in report order.
        held = current.keys() & report.updated_items
        if pending:
            held |= pending.keys() & report.updated_items
        for item in report.ordered(held):
            if item in current and item not in stale:
                # The value stopped being current at the end of the
                # previous cycle: close its validity interval.
                self._close(item, report.cycle - 1)
            # Autoprefetch: grab the new value when its bucket flies by.
            # A pending refresh from an earlier update is *re-armed* with
            # this cycle's record -- its old record is superseded and must
            # never materialize as current (it would serve a stale value).
            try:
                slot = program.first_slot_of(item)
            except KeyError:  # pragma: no cover - item left the broadcast
                pending.pop(item, None)
                continue
            at_time = channel.prefetch_time(slot)
            pending[item] = _PendingRefresh(program.record_of(item), at_time)
            if at_time < self._due:
                self._due = at_time

    def apply_missed_report(self, report) -> None:
        """Catch up on an invalidation report the client did not hear live
        (resynchronization via the w-window retransmission, §7).

        Closes the validity interval of affected current values; no
        autoprefetch is armed -- that cycle's broadcast is gone -- so the
        next demand read refreshes the value off the air.
        """
        held = self._current.keys() & report.updated_items
        if self._pending:
            held |= self._pending.keys() & report.updated_items
        for item in report.ordered(held):
            # Any in-flight autoprefetch for this item was armed before the
            # missed cycle, so its record is superseded by this report and
            # must never materialize as current.
            self._pending.pop(item, None)
            if item in self._current and item not in self._stale:
                self._close(item, report.cycle - 1)

    def clear(self) -> None:
        """Drop everything -- the client lost track of updates and cannot
        trust any cached value (reconnect without a covering window)."""
        self._current.clear()
        self._stale.clear()
        self._old.clear()
        self._pending.clear()
        self._due = math.inf

    def _close(self, item: int, valid_to: int) -> None:
        """The held current value of ``item`` was current up to
        ``valid_to``: the multiversion cache demotes it, the others keep
        it in place, stale, until its refresh lands."""
        if self.multiversion:
            self._demote(self._current.pop(item), valid_to)
        else:
            self._stale[item] = valid_to

    def _materialize(self, now: float) -> None:
        """Apply autoprefetches whose bucket has already been delivered,
        and tighten the due bound to the earliest one still in flight."""
        if now < self._due:
            return
        due = math.inf
        pending = self._pending
        for item in list(pending):
            refresh = pending[item]
            at_time = refresh.at_time
            if at_time <= now:
                del pending[item]
                self._install_current(refresh.record)
            elif at_time < due:
                due = at_time
        self._due = due

    def _install_current(self, record: ItemRecord) -> None:
        item = record.item
        current = self._current
        held = current.pop(item, None)
        current[item] = record
        if held is None:
            self._evict_current()
        elif self._stale:
            valid_to = self._stale.pop(item, None)
            if valid_to is not None and self.multiversion:
                # Only a restored checkpoint leaves a closed value in the
                # multiversion current partition: it is kept as old.
                self._demote(held, valid_to)

    def _demote(self, record: ItemRecord, valid_to: int) -> None:
        """Keep a superseded value in the old-version partition."""
        old = self._old
        key = (record.item, record.version)
        old.pop(key, None)
        old[key] = CacheEntry(record, valid_to)
        while len(old) > self.old_capacity:
            del old[next(iter(old))]

    def _evict_current(self) -> None:
        current = self._current
        while len(current) > self.current_capacity:
            item = next(iter(current))
            del current[item]
            self._pending.pop(item, None)
            self._stale.pop(item, None)

    # -- lookups -------------------------------------------------------------

    def get_current(self, item: int, now: float) -> Optional[ItemRecord]:
        """The current value of ``item`` if cached at ``now``: the very
        record it was installed from."""
        if self.bypass:
            self.misses += 1
            return None
        if now >= self._due:
            self._materialize(now)
        current = self._current
        record = current.get(item)
        if record is None or item in self._stale:
            self.misses += 1
            return None
        del current[item]
        current[item] = record
        self.hits += 1
        return record

    def get_covering(self, item: int, cycle: int, now: float) -> Optional[ItemRecord]:
        """A cached value of ``item`` that was current at ``cycle``.

        Searches the current slot (including a stale value whose
        autoprefetch has not landed yet -- the paper's "marked for
        autoprefetching" state) and the old-version partition.
        """
        if self.bypass:
            self.misses += 1
            return None
        self._materialize(now)
        current = self._current
        record = current.get(item)
        if record is not None and record.version <= cycle:
            valid_to = self._stale.get(item)
            if valid_to is None or cycle <= valid_to:
                del current[item]
                current[item] = record
                self.hits += 1
                return record
        old = self._old
        for key in reversed(old):
            if key[0] == item and old[key].covers(cycle):
                entry = old[key] = old.pop(key)
                self.hits += 1
                return entry.record
        self.misses += 1
        return None

    # -- insertion on demand-reads --------------------------------------------

    def insert_current(self, record: ItemRecord) -> None:
        """Cache a current value just read off the air."""
        if self.bypass:
            return
        self._pending.pop(record.item, None)
        self._install_current(record)

    def insert_old(self, record: ItemRecord, valid_to: int) -> None:
        """Cache an old version (multiversion partition only)."""
        if not self.multiversion or self.bypass:
            return
        self._demote(record, valid_to)

    # -- checkpointing (see repro.resilience) ---------------------------------

    def export_entries(self) -> Tuple[List[CacheEntry], List[CacheEntry]]:
        """Copies of the (current, old) partitions, LRU order preserved.

        In-flight autoprefetches are deliberately excluded: their records
        only become safe once their bucket has flown by, and a restart
        happens cycles later when that broadcast is long gone.
        """
        stale = self._stale
        current = [CacheEntry(r, stale.get(i)) for i, r in self._current.items()]
        old = [replace(e) for e in self._old.values()]
        return current, old

    def restore_entries(
        self, current: List[CacheEntry], old: List[CacheEntry]
    ) -> None:
        """Reload checkpointed entries (crash-restart recovery).

        Replaces the whole contents; the caller then replays the missed
        invalidation reports (:meth:`apply_missed_report`) to close the
        validity of anything updated during the outage -- the same
        safety argument as the live resynchronization path.
        """
        self.clear()
        for entry in old:
            self._old[(entry.item, entry.version)] = replace(entry)
        while len(self._old) > self.old_capacity:
            del self._old[next(iter(self._old))]
        for entry in current:
            self._current[entry.item] = entry.record
            if entry.valid_to is not None:
                self._stale[entry.item] = entry.valid_to
        self._evict_current()

    # -- introspection -----------------------------------------------------------

    def contents(self) -> List[CacheEntry]:
        """Every held value with its interval, current partition first."""
        current, old = self.export_entries()
        return current + old

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

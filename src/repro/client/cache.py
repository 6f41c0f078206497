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
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.broadcast.program import BroadcastProgram, ItemRecord
from repro.graph.sgraph import TxnId

if TYPE_CHECKING:  # pragma: no cover
    from repro.broadcast.channel import BroadcastChannel


@dataclass(slots=True)
class CacheEntry:
    """One cached record with its validity interval and arrival time.

    The entry is the :class:`ItemRecord` it cached, handed back as is on
    a hit, plus what the client learnt about it since: the record's
    ``item``, ``value``, ``version`` and ``writer`` are read through.
    """

    record: ItemRecord
    #: Last cycle the value was current for; ``None`` = still current.
    valid_to: Optional[int]
    #: Simulation time from which the value is usable (autoprefetched
    #: values only exist once their bucket has flown by).
    available_at: float

    @property
    def item(self) -> int:
        return self.record.item

    @property
    def value(self) -> int:
        return self.record.value

    @property
    def version(self) -> int:
        """Broadcast cycle at whose beginning the value became current."""
        return self.record.version

    @property
    def writer(self) -> Optional[TxnId]:
        return self.record.writer

    def covers(self, cycle: int) -> bool:
        """Was this value the current one at ``cycle``?"""
        if cycle < self.record.version:
            return False
        return self.valid_to is None or cycle <= self.valid_to

    @property
    def is_current(self) -> bool:
        return self.valid_to is None


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
        #: Degradation controls (repro.resilience): with autoprefetch off
        #: the report still invalidates entries but no refresh is armed;
        #: bypassed, every lookup misses and every insert is dropped.
        self.autoprefetch_enabled = True
        self.bypass = False
        #: Current values, LRU order (least recent first).
        self._current: "OrderedDict[int, CacheEntry]" = OrderedDict()
        #: Old versions, LRU order, keyed by (item, version).
        self._old: "OrderedDict[Tuple[int, int], CacheEntry]" = OrderedDict()
        self._pending: Dict[int, _PendingRefresh] = {}
        #: A lower bound on every pending landing time: until the clock
        #: reaches it, no autoprefetch can materialize.
        self._due = math.inf
        self.hits = 0
        self.misses = 0

    @property
    def multiversion(self) -> bool:
        return self.old_capacity > 0

    @property
    def current_capacity(self) -> int:
        return self.capacity - self.old_capacity

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
        current, pending = self._current, self._pending
        # Only items the client holds (an entry or a refresh in flight)
        # are touched: intersect in C, then visit them in report order.
        held = current.keys() & report.updated_items
        if pending:
            held |= pending.keys() & report.updated_items
        for item in report.ordered(held):
            entry = current.get(item)
            if entry is not None and entry.is_current:
                # The value stopped being current at the end of the
                # previous cycle: close its validity interval.
                entry.valid_to = report.cycle - 1
                if self.multiversion:
                    self._demote(entry)
                    del current[item]
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

        Closes the validity interval of affected current entries; no
        autoprefetch is armed -- that cycle's broadcast is gone -- so the
        next demand read refreshes the entry off the air.
        """
        held = self._current.keys() & report.updated_items
        if self._pending:
            held |= self._pending.keys() & report.updated_items
        for item in report.ordered(held):
            # Any in-flight autoprefetch for this item was armed before the
            # missed cycle, so its record is superseded by this report and
            # must never materialize as current.
            self._pending.pop(item, None)
            entry = self._current.get(item)
            if entry is None or not entry.is_current:
                continue
            entry.valid_to = report.cycle - 1
            if self.multiversion:
                self._demote(entry)
                del self._current[item]

    def clear(self) -> None:
        """Drop everything -- the client lost track of updates and cannot
        trust any cached value (reconnect without a covering window)."""
        self._current.clear()
        self._old.clear()
        self._pending.clear()
        self._due = math.inf

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
                self._install_current(refresh.record, at_time)
            elif at_time < due:
                due = at_time
        self._due = due

    def _install_current(self, record: ItemRecord, available_at: float) -> None:
        # Positional: parsing keywords would cost as much again as the
        # construction itself, once per refresh and demand insert.
        entry = CacheEntry(record, None, available_at)
        stale = self._current.get(record.item)
        if stale is not None and self.multiversion and not stale.is_current:
            self._demote(stale)
        self._current[record.item] = entry
        self._current.move_to_end(record.item)
        self._evict_current()

    def _demote(self, entry: CacheEntry) -> None:
        """Move a superseded value into the old-version partition."""
        if entry.valid_to is None:  # pragma: no cover - defensive
            raise ValueError("Cannot demote a still-current entry")
        key = (entry.record.item, entry.record.version)
        self._old[key] = entry
        self._old.move_to_end(key)
        while len(self._old) > self.old_capacity:
            self._old.popitem(last=False)

    def _evict_current(self) -> None:
        while len(self._current) > self.current_capacity:
            item, _ = self._current.popitem(last=False)
            self._pending.pop(item, None)

    # -- lookups -------------------------------------------------------------

    def get_current(self, item: int, now: float) -> Optional[CacheEntry]:
        """The current value of ``item`` if cached and usable at ``now``."""
        if self.bypass:
            self.misses += 1
            return None
        self._materialize(now)
        entry = self._current.get(item)
        if entry is None or not entry.is_current or entry.available_at > now:
            self.misses += 1
            return None
        self._current.move_to_end(item)
        self.hits += 1
        return entry

    def get_covering(self, item: int, cycle: int, now: float) -> Optional[CacheEntry]:
        """A cached value of ``item`` that was current at ``cycle``.

        Searches the current slot (including an invalidated entry whose
        autoprefetch has not landed yet -- the paper's "marked for
        autoprefetching" state) and the old-version partition.
        """
        if self.bypass:
            self.misses += 1
            return None
        self._materialize(now)
        entry = self._current.get(item)
        if entry is not None and entry.available_at <= now and entry.covers(cycle):
            self._current.move_to_end(item)
            self.hits += 1
            return entry
        for key in reversed(self._old):
            if key[0] != item:
                continue
            old = self._old[key]
            if old.available_at <= now and old.covers(cycle):
                self._old.move_to_end(key)
                self.hits += 1
                return old
        self.misses += 1
        return None

    # -- insertion on demand-reads --------------------------------------------

    def insert_current(self, record: ItemRecord, now: float) -> None:
        """Cache a current value just read off the air."""
        if self.bypass:
            return
        self._pending.pop(record.item, None)
        self._install_current(record, available_at=now)

    def insert_old(self, record: ItemRecord, valid_to: int, now: float) -> None:
        """Cache an old version (multiversion partition only)."""
        if not self.multiversion or self.bypass:
            return
        self._demote(CacheEntry(record, valid_to, now))

    # -- checkpointing (see repro.resilience) ---------------------------------

    def export_entries(self) -> Tuple[List[CacheEntry], List[CacheEntry]]:
        """Copies of the (current, old) partitions, LRU order preserved.

        In-flight autoprefetches are deliberately excluded: their records
        only become safe once their bucket has flown by, and a restart
        happens cycles later when that broadcast is long gone.
        """
        current = [replace(e) for e in self._current.values()]
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
            self._old.popitem(last=False)
        for entry in current:
            self._current[entry.item] = replace(entry)
        self._evict_current()

    # -- introspection -----------------------------------------------------------

    def contents(self) -> List[CacheEntry]:
        return list(self._current.values()) + list(self._old.values())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

"""The server's item state: current values and retained old versions.

The paper's multiversion broadcast (§3.2) keeps, besides the current
value of every item, the versions that were current during the previous
``retention`` cycles.  Its rule "at each cycle k the server discards the
k - S version" works out to: an overwritten value stays on the air for
``retention`` cycles after the cycle in which its successor became
current.  That is what guarantees Theorem 2 -- a transaction whose first
read happened at cycle ``c0`` finds the version current-at-``c0`` of
every item it touches for ``retention`` further cycles.

The store answers the program builder's per-item questions -- "what is
the current value?", "does this item have old versions on the air?",
"which versions expired this cycle?" -- off dense columns indexed by
*dense id* (the item's rank in the store's sorted item slice):

``_cur_cycle`` / ``_cur_value``
    ``array('q')`` -- the version number (visibility cycle) and payload
    of every item's current value, maintained by observing every
    :meth:`Database.write`; an item record is two array reads instead
    of a version-chain bisect.
``_writers``
    The last-writer transaction tags (object column; SGT's item tags).

The ``has_old_versions`` bit of Figure 2(b) is membership in
``_retained``: an item's list is deleted the moment it empties, so the
bit needs no column of its own and no retention is too deep for it.

Old-version bookkeeping is organized by *supersedure cohort*: all
versions superseded at cycle ``w`` expire together at ``w + retention``
(the paper's "at cycle k discard the k - S version"), so eviction pops
whole cohorts -- O(evicted), not a re-scan of every retained item each
cycle -- and the overflow version directory (Figure 2(b): newest
supersedure first) is the cached concatenation of cohorts in descending
``w``.  Each cohort's records are built once and kept until that cohort
is appended to or evicted, so a cycle's rebuild constructs only the
newest cohort's records and re-joins the rest.

Semantics are pinned to the dict-backed reference
(``tests/server/reference_versions.py``) by the differential oracle
(``tests/server/test_columnar_oracle.py``) and the Hypothesis suite
(``tests/server/test_columnar_store.py``).  The contract both keep:

* ``record_supersedure(old, superseded_at)`` is called at most once per
  ``(item, superseded_at)`` pair -- the engine skips the second write of
  an item within one cycle -- and ``superseded_at`` is non-decreasing
  per item.
* ``evict_expired(c)`` is called with non-decreasing ``c`` on the server
  loop; arbitrary ``c`` sequences must still converge to the same
  retained set as the reference.
* Every ``Database.write`` is observed (the store registers itself as a
  database observer), so the current-value columns never go stale.
* ``consume_dirty()`` drains the change feed; membership is exact: an
  item is dirty iff its on-air old-version set changed.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.broadcast.program import ItemRecord, OldVersionRecord
from repro.server.database import Database, Version


class RetainedVersion(NamedTuple):
    """An old version together with the cycle at which it was overwritten.

    ``superseded_at`` is the visibility cycle of the *successor* value,
    so this version was the current one during cycles
    ``[version.cycle, superseded_at - 1]``.
    """

    version: Version
    superseded_at: int

    @property
    def valid_from(self) -> int:
        return self.version.cycle

    @property
    def valid_to(self) -> int:
        """Last cycle during which this value was the current one."""
        return self.superseded_at - 1

    def covers(self, cycle: int) -> bool:
        """Was this value the current one at ``cycle``?"""
        return self.valid_from <= cycle <= self.valid_to


class ColumnarVersionStore:
    """Dense-array item state over (a slice of) the item universe.

    Parameters
    ----------
    database:
        The underlying versioned store (ground truth for values).
    retention:
        ``S`` / ``V`` -- how many cycles an overwritten value remains
        broadcast; ``0`` disables old versions entirely.
    items:
        The item slice this store owns (a shard's partition); ``None``
        means the whole universe ``1..database.size``.  Only owned items
        occupy columns; writes to other items are ignored.
    """

    def __init__(
        self,
        database: Database,
        retention: int,
        items: Optional[Iterable[int]] = None,
    ) -> None:
        if retention < 0:
            raise ValueError(f"retention must be non-negative, got {retention}")
        self.database = database
        self.retention = retention

        if items is None:
            # Contiguous universe: dense id is plain offset arithmetic.
            self._items: Tuple[int, ...] = tuple(range(1, database.size + 1))
            self._base: Optional[int] = 1
            self._index: Dict[int, int] = {}
        else:
            owned = sorted(set(items))
            if not owned:
                raise ValueError("a columnar store needs at least one item")
            self._items = tuple(owned)
            first, last = owned[0], owned[-1]
            if last - first + 1 == len(owned):
                # Contiguous slice (range partitioner): offset arithmetic.
                self._base = first
                self._index = {}
            else:
                self._base = None
                self._index = {item: idx for idx, item in enumerate(owned)}

        n = len(self._items)
        self._cur_cycle = array("q", bytes(8 * n))
        self._cur_value = array("q", bytes(8 * n))
        self._writers: List[Optional[object]] = [None] * n
        for idx, item in enumerate(self._items):
            current = database.current(item)
            self._cur_cycle[idx] = current.cycle
            self._cur_value[idx] = current.value
            self._writers[idx] = current.writer

        #: item -> retained old versions, oldest first; an item is a key
        #: exactly while it has old versions on the air (its has-old bit).
        self._retained: Dict[int, List[RetainedVersion]] = {}
        #: supersedure cycle w -> that cohort's versions, in call order.
        #: The whole cohort expires at w + retention.
        self._cohorts: Dict[int, List[RetainedVersion]] = {}
        #: w -> that cohort's directory records in item order, built on
        #: first read; dropped when the cohort is appended to or evicted.
        self._cohort_records: Dict[int, Tuple[OldVersionRecord, ...]] = {}
        #: Cached overflow directory (Figure 2(b) order); None = stale.
        self._directory: Optional[Tuple[OldVersionRecord, ...]] = None
        self._total_retained = 0
        self._dirty: Set[int] = set()

        database.add_observer(self)

    # -- dense-id mapping ---------------------------------------------------

    def dense_index(self, item: int) -> int:
        """Dense id of ``item``; raises ``KeyError`` for unowned items."""
        if self._base is not None:
            idx = item - self._base
            if 0 <= idx < len(self._items):
                return idx
            raise KeyError(f"Item {item} not owned by this store")
        return self._index[item]

    def item_at(self, index: int) -> int:
        """Inverse of :meth:`dense_index` (for the bijection tests)."""
        return self._items[index]

    def owns(self, item: int) -> bool:
        if self._base is not None:
            return 0 <= item - self._base < len(self._items)
        return item in self._index

    @property
    def items(self) -> Tuple[int, ...]:
        return self._items

    # -- current-value columns ----------------------------------------------

    def note_write(self, version: Version) -> None:
        """Database write observer: refresh the current-value columns."""
        try:
            idx = self.dense_index(version.item)
        except KeyError:
            return  # another shard's item
        self._cur_cycle[idx] = version.cycle
        self._cur_value[idx] = version.value
        self._writers[idx] = version.writer

    def item_record(self, item: int, cycle: int, needs_old: bool) -> ItemRecord:
        """The on-air record of ``item`` in the cycle-``cycle`` snapshot.

        The server builds cycle ``c`` after the commits visible at ``c``,
        so the columns normally *are* the snapshot; the rare case of a
        write already visible beyond ``cycle`` (tests poking the database
        directly) falls back to the version-chain search.
        """
        idx = self.dense_index(item)
        if self._cur_cycle[idx] > cycle:
            version = self.database.value_at(item, cycle)
            return ItemRecord(
                item=item,
                value=version.value,
                version=version.cycle,
                writer=version.writer,
                has_old_versions=needs_old and item in self._retained,
            )
        return ItemRecord(
            item=item,
            value=self._cur_value[idx],
            version=self._cur_cycle[idx],
            writer=self._writers[idx],
            has_old_versions=needs_old and item in self._retained,
        )

    def records_for(
        self, chunk: Sequence[int], cycle: int, needs_old: bool
    ) -> Tuple[ItemRecord, ...]:
        """One bucket's records, straight off the columns.

        This is the bulk path (full rebuilds prime every bucket; the
        10^5-item lane lives here), so the per-item method-call chain of
        :meth:`item_record` is hoisted into local bindings; chunks come
        from the builder's layout and are owned by construction.
        """
        base = self._base
        index = self._index
        cur_cycle = self._cur_cycle
        cur_value = self._cur_value
        writers = self._writers
        retained = self._retained
        slow = self.item_record
        make = ItemRecord
        out = []
        append = out.append
        for item in chunk:
            idx = item - base if base is not None else index[item]
            version = cur_cycle[idx]
            if version > cycle:
                append(slow(item, cycle, needs_old))
            else:
                append(
                    make(
                        item=item,
                        value=cur_value[idx],
                        version=version,
                        writer=writers[idx],
                        has_old_versions=needs_old and item in retained,
                    )
                )
        return tuple(out)

    def has_old(self, item: int) -> bool:
        return item in self._retained

    # -- old-version bookkeeping --------------------------------------------

    def record_supersedure(self, old: Version, superseded_at: int) -> None:
        if self.retention == 0:
            return
        rv = RetainedVersion(old, superseded_at)
        self._retained.setdefault(old.item, []).append(rv)
        self._cohorts.setdefault(superseded_at, []).append(rv)
        self._cohort_records.pop(superseded_at, None)
        self._total_retained += 1
        self._dirty.add(old.item)
        self._directory = None

    def evict_expired(self, current_cycle: int) -> int:
        retention = self.retention
        expired = sorted(
            w for w in self._cohorts if current_cycle - w >= retention
        )
        evicted = 0
        for w in expired:
            self._cohort_records.pop(w, None)
            for rv in self._cohorts.pop(w):
                item = rv.version.item
                bucket = self._retained[item]
                front = bucket.pop(0)
                assert front is rv, "cohort eviction out of supersedure order"
                if not bucket:
                    del self._retained[item]
                self._dirty.add(item)
                evicted += 1
        if evicted:
            self._total_retained -= evicted
            self._directory = None
        return evicted

    def consume_dirty(self) -> Set[int]:
        dirty, self._dirty = self._dirty, set()
        return dirty

    def on_air(self, item: int) -> List[RetainedVersion]:
        return list(self._retained.get(item, ()))

    def all_on_air(self) -> Dict[int, List[RetainedVersion]]:
        return {item: list(rvs) for item, rvs in self._retained.items()}

    def overflow_records(self) -> Tuple[OldVersionRecord, ...]:
        """The overflow version directory, newest supersedure first
        (Figure 2(b)) -- the cached cohort concatenation."""
        if self._directory is None:
            records: List[OldVersionRecord] = []
            for w in sorted(self._cohorts, reverse=True):
                cohort = self._cohort_records.get(w)
                if cohort is None:
                    cohort = self._cohort_records[w] = tuple(
                        OldVersionRecord(
                            item=rv.version.item,
                            value=rv.version.value,
                            version=rv.version.cycle,
                            valid_to=rv.valid_to,
                            writer=rv.version.writer,
                        )
                        for rv in sorted(
                            self._cohorts[w], key=lambda rv: rv.version.item
                        )
                    )
                records.extend(cohort)
            self._directory = tuple(records)
        return self._directory

    def best_version_at(self, item: int, cycle: int) -> Optional[Version]:
        current = self.database.current(item)
        if current.cycle <= cycle:
            return current
        for rv in reversed(self._retained.get(item, [])):
            if rv.covers(cycle):
                return rv.version
        return None

    @property
    def total_retained(self) -> int:
        return self._total_retained

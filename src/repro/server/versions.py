"""Retention of old versions for the multiversion broadcast method (§3.2).

The server broadcasts, besides the current value of every item, the
versions that were current during the previous ``retention`` cycles.  The
paper's rule "at each cycle k the server discards the k - S version" works
out to: an overwritten value stays on the air for ``retention`` cycles
after the cycle in which its successor became current.  That is exactly
what guarantees Theorem 2 -- a transaction whose first read happened at
cycle ``c0`` finds the version current-at-``c0`` of every item it touches
for ``retention`` further cycles.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set

from repro.server.database import Database, Version
from repro.server.itemstate import ItemStateStore


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


class VersionStore(ItemStateStore):
    """Tracks which old versions are on the air at each cycle.

    This is the dict-backed *reference* implementation of the
    :class:`~repro.server.itemstate.ItemStateStore` seam (``columnar ==
    False``): it reads current values straight off the database, so
    :meth:`note_write` is a no-op.  The array-backed twin lives in
    :mod:`repro.server.columnar`; this one is what the tests compare it
    against and the only store that runs a retention beyond 255
    (:func:`~repro.server.itemstate.make_item_state`).

    Parameters
    ----------
    database:
        The underlying versioned store (ground truth for values).
    retention:
        ``S`` (or the weaker ``V``) -- how many cycles an overwritten value
        remains broadcast.  ``0`` disables old versions entirely
        (degenerates to the invalidation-only broadcast content).
    """

    columnar = False

    def __init__(self, database: Database, retention: int) -> None:
        if retention < 0:
            raise ValueError(f"retention must be non-negative, got {retention}")
        self.database = database
        self.retention = retention
        #: item -> retained old versions, oldest first.
        self._retained: Dict[int, List[RetainedVersion]] = {}
        #: Items whose on-air old-version set changed since the last
        #: :meth:`consume_dirty` -- the incremental program builder needs
        #: them because a retention *eviction* flips an item's
        #: ``has_old_versions`` pointer without the item being updated.
        self._dirty: Set[int] = set()

    def record_supersedure(self, old: Version, superseded_at: int) -> None:
        """Note that ``old`` stopped being current at ``superseded_at``.

        Called by the transaction engine when a committed write replaces a
        value.  With ``retention == 0`` nothing is kept.
        """
        if self.retention == 0:
            return
        bucket = self._retained.setdefault(old.item, [])
        bucket.append(RetainedVersion(old, superseded_at))
        self._dirty.add(old.item)

    def evict_expired(self, current_cycle: int) -> int:
        """Drop versions whose on-air window has passed; returns count.

        A version superseded at cycle ``w`` remains on air during cycles
        ``w .. w + retention - 1`` and is discarded at
        ``w + retention``.
        """
        evicted = 0
        for item in list(self._retained):
            keep = [
                rv
                for rv in self._retained[item]
                if current_cycle - rv.superseded_at < self.retention
            ]
            removed = len(self._retained[item]) - len(keep)
            if removed:
                self._dirty.add(item)
            evicted += removed
            if keep:
                self._retained[item] = keep
            else:
                del self._retained[item]
        return evicted

    def consume_dirty(self) -> Set[int]:
        """Items whose on-air old versions changed since the last call.

        Drained (swap-and-return) by the program builder once per cycle
        build; a full rebuild drains it too so stale entries never pile
        up across schedule changes.
        """
        dirty, self._dirty = self._dirty, set()
        return dirty

    def on_air(self, item: int) -> List[RetainedVersion]:
        """Old versions of ``item`` currently broadcast (oldest first)."""
        return list(self._retained.get(item, ()))

    def all_on_air(self) -> Dict[int, List[RetainedVersion]]:
        """Old versions per item, for the program builder."""
        return {item: list(rvs) for item, rvs in self._retained.items()}

    def best_version_at(self, item: int, cycle: int) -> Optional[Version]:
        """Largest on-air version of ``item`` current at ``cycle``.

        Checks the current value first (its validity extends to now), then
        the retained old versions.  Returns ``None`` when the required
        version has already been discarded -- the client must abort.
        """
        current = self.database.current(item)
        if current.cycle <= cycle:
            return current
        for rv in reversed(self._retained.get(item, [])):
            if rv.covers(cycle):
                return rv.version
        return None

    @property
    def total_retained(self) -> int:
        """Number of old versions currently on the air (sizing input)."""
        return sum(len(rvs) for rvs in self._retained.values())

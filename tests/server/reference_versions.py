"""Reference model of the item-state store, for the columnar oracle.

:class:`VersionStore` is the dict-backed old-version store as it stood
before the columnar store became the server's only one (commit 5d98ed5),
bodies verbatim: every eviction re-scans every retained item, and the
has-old bit is read off the retained lists.  It also carries the record
and directory logic ``ProgramBuilder`` dropped with it -- item records
searched off the database's version chains, the overflow directory
re-sorted from scratch each cycle -- so a program built on it derives
every record independently of the columns.  Nothing here shares code
with ``src/`` beyond the record types, so agreement with it means the
columnar store keeps, evicts and airs the same versions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.broadcast.program import ItemRecord, OldVersionRecord
from repro.server.columnar import RetainedVersion
from repro.server.database import Database, Version


class VersionStore:
    """Tracks which old versions are on the air at each cycle.

    It reads current values straight off the database, so it needs no
    write observer.

    Parameters
    ----------
    database:
        The underlying versioned store (ground truth for values).
    retention:
        ``S`` (or the weaker ``V``) -- how many cycles an overwritten value
        remains broadcast.  ``0`` disables old versions entirely
        (degenerates to the invalidation-only broadcast content).
    """

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
        """Items whose on-air old versions changed since the last call."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def on_air(self, item: int) -> List[RetainedVersion]:
        """Old versions of ``item`` currently broadcast (oldest first)."""
        return list(self._retained.get(item, ()))

    def all_on_air(self) -> Dict[int, List[RetainedVersion]]:
        """Old versions per item."""
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

    # -- what the builder reads (its former dict-store branch) -------------

    def item_record(self, item: int, cycle: int, needs_old: bool) -> ItemRecord:
        version = self.database.value_at(item, cycle)
        return ItemRecord(
            item=item,
            value=version.value,
            version=version.cycle,
            writer=version.writer,
            has_old_versions=bool(needs_old and self.on_air(item)),
        )

    def records_for(
        self, chunk: Sequence[int], cycle: int, needs_old: bool
    ) -> Tuple[ItemRecord, ...]:
        return tuple(self.item_record(item, cycle, needs_old) for item in chunk)

    def overflow_records(self) -> Tuple[OldVersionRecord, ...]:
        """All retained versions, newest supersedure first (Figure 2(b))."""
        records: List[Tuple[int, OldVersionRecord]] = []
        for item, retained in self.all_on_air().items():
            for rv in retained:
                records.append(
                    (
                        rv.superseded_at,
                        OldVersionRecord(
                            item=item,
                            value=rv.version.value,
                            version=rv.version.cycle,
                            valid_to=rv.valid_to,
                            writer=rv.version.writer,
                        ),
                    )
                )
        records.sort(key=lambda pair: (-pair[0], pair[1].item))
        return tuple(record for _, record in records)

"""The item-state seam: one contract, two interchangeable stores.

Every per-cycle control structure of the paper -- invalidation reports,
version directories, the ``has_old_versions`` pointers of Figure 2(b) --
is a function over the whole item universe.  The reference
implementation (:class:`~repro.server.versions.VersionStore`) keeps that
state in per-object dicts and lists; the columnar implementation
(:class:`~repro.server.columnar.ColumnarVersionStore`) keeps it in
contiguous arrays indexed by *dense ids* so report and directory
assembly become slice operations (ROADMAP item 4; Faleiro & Abadi's
batched multiversion bookkeeping is the model).

:class:`ItemStateStore` is the seam between them: the program builder,
transaction engine, sharded runtime and cohort trace recorder only ever
talk to this interface, so the two stores are *differentially testable*
-- ``tests/server/test_columnar_oracle.py`` pins bit-identity of every
program, report and metrics registry across the scheme x seed x fault
matrix, and the Hypothesis suite replays arbitrary update/evict
sequences through both.  Which one a server runs is not a setting:
:func:`make_item_state` derives it from the retention.

Seam contract (matches the transaction engine's call pattern):

* ``record_supersedure(old, superseded_at)`` is called at most once per
  ``(item, superseded_at)`` pair -- the engine skips the second write of
  an item within one cycle -- and ``superseded_at`` is non-decreasing
  per item.
* ``evict_expired(c)`` is called with non-decreasing ``c`` on the server
  loop; arbitrary ``c`` sequences must still converge to the same
  retained set as the reference store.
* Every ``Database.write`` is observed (the columnar store registers
  itself as a database observer), so the current-value columns never go
  stale.
* ``consume_dirty()`` drains the change feed; ordering of the returned
  set is unspecified (no consumer is order-sensitive), membership is
  exact: an item is dirty iff its on-air old-version set changed.
* ``all_on_air()`` ordering is likewise unspecified; the only consumer
  (overflow-directory assembly) sorts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.database import Database, Version
    from repro.server.versions import RetainedVersion


class ItemStateStore(ABC):
    """Contract between the server substrate and its item-state store.

    Implementations bundle two concerns that the hot path always touches
    together: the *current* value of every item (what the data segment
    carries) and the *retained old versions* (what the multiversion
    organizations carry, with ``retention`` = the paper's ``S``/``V``).
    """

    #: Whether this store keeps columnar (dense-array) state; the
    #: program builder selects its fast paths off this flag.
    columnar: bool = False
    database: "Database"
    retention: int

    # -- current-value state ----------------------------------------------

    def note_write(self, version: "Version") -> None:
        """Observe one committed write (keeps current-value columns in
        sync).  The dict-backed reference reads the database directly,
        so its implementation is a no-op."""

    # -- old-version bookkeeping (the VersionStore API) --------------------

    @abstractmethod
    def record_supersedure(self, old: "Version", superseded_at: int) -> None:
        """Note that ``old`` stopped being current at ``superseded_at``."""

    @abstractmethod
    def evict_expired(self, current_cycle: int) -> int:
        """Drop versions whose on-air window has passed; returns count."""

    @abstractmethod
    def consume_dirty(self) -> Set[int]:
        """Drain and return the items whose on-air old-version set
        changed since the last call."""

    @abstractmethod
    def on_air(self, item: int) -> List["RetainedVersion"]:
        """Old versions of ``item`` currently broadcast (oldest first)."""

    @abstractmethod
    def all_on_air(self) -> Dict[int, List["RetainedVersion"]]:
        """Old versions per item (ordering unspecified, see module doc)."""

    @abstractmethod
    def best_version_at(self, item: int, cycle: int) -> Optional["Version"]:
        """Largest on-air version of ``item`` current at ``cycle``."""

    @property
    @abstractmethod
    def total_retained(self) -> int:
        """Number of old versions currently on the air (sizing input)."""


def make_item_state(
    database: "Database",
    retention: int,
    items: Optional[object] = None,
    items_per_bucket: Optional[int] = None,
) -> ItemStateStore:
    """Build the store ``retention`` calls for.

    The columnar store while ``retention`` fits its byte-wide old-count
    column (``<= 255``), the dict-backed store beyond: the retention is
    the one input that decides it, so nobody chooses.

    ``items`` restricts a columnar store to a dense slice of the item
    universe (the sharded server passes each shard's item set, so K
    stores together hold one universe's worth of columns, not K).  The
    dict-backed store ignores both columnar-only hints.
    """
    from repro.server.columnar import ColumnarVersionStore

    if retention <= ColumnarVersionStore.MAX_RETENTION:
        return ColumnarVersionStore(
            database,
            retention=retention,
            items=items,
            items_per_bucket=items_per_bucket,
        )
    from repro.server.versions import VersionStore

    return VersionStore(database, retention=retention)

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

The marking rule is §4.1's (:class:`~repro.core.versioned_cache.MarkedQueryScheme`).
A missed report is not tolerated either: versions are broadcast, but the
report it carried may hold the *first* invalidation, which fixes the
serialization point.
"""

from __future__ import annotations

from repro.broadcast.program import ItemRecord
from repro.core.control import BroadcastRequirements
from repro.core.versioned_cache import MarkedQueryScheme


class MultiversionCaching(MarkedQueryScheme):
    """Invalidation reports + versioned values kept in a partitioned cache."""

    name = "multiversion-caching"

    def requirements(self) -> BroadcastRequirements:
        # Version numbers ride with the items (the paper: "the increase in
        # the broadcast size is that of the invalidation-only method plus
        # the additional space needed to broadcast version numbers").
        return BroadcastRequirements(needs_versions_on_items=True)

    def attach(self, ctx) -> None:
        super().attach(ctx)
        if ctx.cache is None or not ctx.cache.multiversion:
            raise RuntimeError(
                f"{self.name} requires a cache with an old-version partition"
            )

    def _current_at(self, record: ItemRecord, cycle: int, target: int) -> bool:
        # The version number rides with the item: a value not updated
        # since the target is still the target's, on the air or in the
        # default off-air fallback.
        return record.version <= target

"""Control information broadcast alongside the data.

Every scheme's correctness rests on some slice of this structure:

* the plain :class:`InvalidationReport` (items updated during the previous
  cycle) drives the invalidation-only family (§3.1, §4.1);
* the *augmented* report adds the first writer of each updated item, and
  the :class:`~repro.graph.sgraph.GraphDiff` adds the new conflict edges
  -- together the SGT method's inputs (§3.3);
* the bucket-level report is the cache-consistency report of §4 and the
  granularity extension of §7;
* the ``window`` retransmits the reports of the last ``w`` cycles so that
  briefly disconnected clients can resynchronize (§5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.graph.sgraph import GraphDiff, TxnId


@dataclass(frozen=True)
class InvalidationReport:
    """Items updated during the cycle preceding ``cycle``.

    ``first_writers`` is only populated when the server runs the SGT
    method (the augmented report); ``updated_buckets`` is derived from
    ``updated_items`` by the program builder for cache-level invalidation
    and for the bucket-granularity query processing extension.
    """

    cycle: int
    updated_items: FrozenSet[int] = frozenset()
    first_writers: Mapping[int, TxnId] = field(default_factory=dict)
    updated_buckets: FrozenSet[int] = frozenset()

    def invalidates(self, items: FrozenSet[int]) -> FrozenSet[int]:
        """The subset of ``items`` that this report invalidates."""
        return items & self.updated_items

    def invalidates_buckets(self, buckets: FrozenSet[int]) -> FrozenSet[int]:
        return buckets & self.updated_buckets

    def ordered(self, items: Iterable[int]) -> List[int]:
        """``items``, all of them updated items, in the order iterating
        ``updated_items`` visits them: a client can intersect the report
        with what it holds and still act in the report's own order."""
        return sorted(items, key=self._rank.__getitem__)

    @cached_property
    def _rank(self) -> Dict[int, int]:
        # Built once per report and shared by every client that hears it.
        # Not a field: equality, repr and the wire ignore it.
        return {item: rank for rank, item in enumerate(self.updated_items)}


def report_from_updates(
    cycle: int,
    updated_items: FrozenSet[int],
    first_writers: Optional[Mapping[int, TxnId]] = None,
    items_per_bucket: int = 1,
) -> InvalidationReport:
    """Assemble one cycle's invalidation report from the commit outcome.

    Updated items are projected onto data buckets by the flat-layout
    page arithmetic.  ``first_writers`` is only carried when the server
    runs the SGT method (augmented report).
    """
    return InvalidationReport(
        cycle=cycle,
        updated_items=updated_items,
        first_writers=dict(first_writers) if first_writers else {},
        updated_buckets=frozenset(
            (item - 1) // items_per_bucket for item in updated_items
        ),
    )


@dataclass(frozen=True)
class ControlInfo:
    """The complete control segment at the head of one broadcast cycle."""

    cycle: int
    invalidation: InvalidationReport
    #: Serialization-graph difference (SGT method only).
    graph_diff: Optional[GraphDiff] = None
    #: Reports of the last ``w`` cycles, oldest first (disconnection
    #: resynchronization extension); excludes the current report.
    window: Tuple[InvalidationReport, ...] = ()
    #: Wire size of this control segment in units (for sizing/latency).
    size_units: int = 0

    def report_covering(self, cycle: int) -> Optional[InvalidationReport]:
        """Find the (current or windowed) report broadcast at ``cycle``."""
        if cycle == self.invalidation.cycle:
            return self.invalidation
        for report in self.window:
            if report.cycle == cycle:
                return report
        return None

    def missed_window_ok(self, last_heard: int) -> bool:
        """Can a client that last listened at ``last_heard`` catch up?

        True when every cycle in ``(last_heard, cycle]`` is covered by the
        current report plus the window.
        """
        covered = {self.invalidation.cycle}
        covered.update(report.cycle for report in self.window)
        return all(c in covered for c in range(last_heard + 1, self.cycle + 1))


@dataclass(frozen=True)
class BroadcastRequirements:
    """What a scheme needs the server to put on the air.

    The client hands this to the server-side program builder when the
    simulation is wired up; it is the contract between a processing scheme
    and the broadcast organization.
    """

    #: Retain and broadcast old versions (multiversion broadcast, §3.2).
    needs_old_versions: bool = False
    #: Physical organization of old versions: "clustered" or "overflow"
    #: (only meaningful when ``needs_old_versions``).
    organization: str = "overflow"
    #: Tag every item with its last writer and broadcast the augmented
    #: report plus graph diff (SGT, §3.3).
    needs_sgt: bool = False
    #: Broadcast version numbers with items (multiversion caching, §4.2,
    #: and the SGT disconnection enhancement of §5.2.2).
    needs_versions_on_items: bool = False
    #: Retransmit the invalidation reports of the last ``w`` cycles.
    report_window: int = 0

    def merge(self, other: "BroadcastRequirements") -> "BroadcastRequirements":
        """Combine the needs of several co-existing client schemes."""
        if (
            self.needs_old_versions
            and other.needs_old_versions
            and self.organization != other.organization
        ):
            raise ValueError(
                "Conflicting multiversion organizations: "
                f"{self.organization} vs {other.organization}"
            )
        organization = (
            self.organization if self.needs_old_versions else other.organization
        )
        return BroadcastRequirements(
            needs_old_versions=self.needs_old_versions or other.needs_old_versions,
            organization=organization,
            needs_sgt=self.needs_sgt or other.needs_sgt,
            needs_versions_on_items=(
                self.needs_versions_on_items or other.needs_versions_on_items
            ),
            report_window=max(self.report_window, other.report_window),
        )


@dataclass(frozen=True)
class ReportSchedule:
    """How often control information goes on the air (§7, first extension).

    ``per_cycle = 1`` is the paper's base scheme: one report at the head of
    each bcast.  Larger values split the cycle into ``per_cycle`` intervals
    of length ``h = T / per_cycle`` with a report at the head of each; the
    mid-cycle reports cover updates committed during the interval, letting
    clients abort doomed queries earlier.  ``window`` asks the server to
    retransmit the last ``window`` cycles' reports for resynchronization.
    """

    per_cycle: int = 1
    window: int = 0

    def __post_init__(self) -> None:
        if self.per_cycle < 1:
            raise ValueError("per_cycle must be at least 1")
        if self.window < 0:
            raise ValueError("window must be non-negative")

"""Assembling each cycle's broadcast program.

The builder turns the server's state (database snapshot, retained old
versions, the previous cycle's commit outcome) into the physical
:class:`~repro.broadcast.program.BroadcastProgram` the channel transmits,
honouring the merged :class:`~repro.core.control.BroadcastRequirements`
of the attached clients and charging every segment its wire size so the
latency results reflect the size results.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.broadcast.schedule import FlatSchedule, Schedule
from repro.config import ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    InvalidationReport,
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff
from repro.obs.trace import EV_PROGRAM_BUILD, Tracer, gate
from repro.server.columnar import ColumnarVersionStore
from repro.server.sizing import SizeModel
from repro.server.transactions import CycleOutcome


class ProgramBuilder:
    """Builds one :class:`BroadcastProgram` per cycle.

    In the flat and overflow organizations every item keeps its position
    inside the data segment from cycle to cycle, so the builder maintains
    a *persistent* per-item slot index and copy-on-writes only the
    buckets whose records actually changed that cycle -- the items the
    commit outcome updated plus the items whose on-air old-version set
    changed (supersedure or retention eviction, tracked by the item-state
    store's dirty feed).  The clustered organization interleaves old
    versions with the data, shifting positions whenever the retained set
    changes, and keeps the full per-cycle rebuild.  ``incremental=False``
    forces the full rebuild everywhere; the differential test suite
    compares the two paths.

    Records and the overflow directory come off ``item_state``'s columns;
    its old versions go on the air only when the requirements ask for
    them.
    """

    def __init__(
        self,
        params: ServerParameters,
        item_state: ColumnarVersionStore,
        schedule: Optional[Schedule] = None,
        requirements: Optional[BroadcastRequirements] = None,
        bits_per_unit: int = 32,
        tracer: Optional[Tracer] = None,
        incremental: bool = True,
    ) -> None:
        self.params = params
        self.item_state = item_state
        self.schedule = schedule or FlatSchedule(params.broadcast_size)
        self.requirements = requirements or BroadcastRequirements()
        self.size_model = SizeModel(params, bits_per_unit=bits_per_unit)
        self.incremental = incremental
        self._trace_c = gate(tracer, "cycles")
        self._recent_reports: Deque[InvalidationReport] = deque(
            maxlen=max(1, self.requirements.report_window)
        )
        # -- persistent cycle-build state (flat/overflow layouts only) ----
        #: The item order the cached layout was computed for.
        self._layout_order: Optional[List[int]] = None
        #: item -> sorted tuple of data-bucket offsets (shared, read-only).
        self._layout: Optional[Dict[int, Tuple[int, ...]]] = None
        #: data-bucket offset -> the items riding in that bucket.
        self._bucket_chunks: List[Tuple[int, ...]] = []
        #: The previous cycle's data buckets and records (COW sources).
        self._cached_buckets: List[Bucket] = []
        self._cached_records: Dict[int, ItemRecord] = {}

    # -- control segment -----------------------------------------------------

    def _build_report(
        self, cycle: int, outcome: Optional[CycleOutcome]
    ) -> InvalidationReport:
        if outcome is None:
            return InvalidationReport(cycle=cycle)
        return report_from_updates(
            cycle=cycle,
            updated_items=outcome.updated_items,
            first_writers=(
                outcome.first_writers if self.requirements.needs_sgt else None
            ),
            items_per_bucket=self.params.items_per_bucket,
        )

    def _control_units(self, report: InvalidationReport, diff: Optional[GraphDiff]) -> int:
        p = self.params
        units = len(report.updated_items) * p.key_size
        if self.requirements.needs_sgt and diff is not None:
            span = (
                self.item_state.retention
                if self.requirements.needs_old_versions
                else 8
            )
            edge_bits = (
                self.size_model.tid_bits()
                + self.size_model.tid_with_cycle_bits(max(2, span))
            )
            units += math.ceil(
                diff.edge_count * edge_bits / self.size_model.bits_per_unit
            )
            units += len(report.first_writers) * p.key_size
        for windowed in self._recent_reports:
            units += len(windowed.updated_items) * p.key_size
        return max(1, units)

    # -- assembly ---------------------------------------------------------------

    def build(self, cycle: int, outcome: Optional[CycleOutcome]) -> BroadcastProgram:
        """Build the program for broadcast cycle ``cycle``.

        ``outcome`` is the commit outcome of cycle ``cycle - 1`` (None for
        the very first cycle): its updates are what the invalidation
        report announces and its values are what this cycle's snapshot
        carries.
        """
        p = self.params
        report = self._build_report(cycle, outcome)
        diff = None
        if outcome is not None and self.requirements.needs_sgt:
            diff = outcome.diff
            if diff is None:
                # Airing an empty diff instead would tell SGT clients that
                # nothing conflicted, and they would trust it.
                raise ValueError(
                    "SGT requirements but the outcome carries no graph "
                    "diff: the engine was built without conflict tracking"
                )

        control_units = self._control_units(report, diff)
        control = ControlInfo(
            cycle=cycle,
            invalidation=report,
            graph_diff=diff,
            window=tuple(self._recent_reports),
            size_units=control_units,
        )
        control_slots = max(1, math.ceil(control_units / p.bucket_size))

        organization = MultiversionOrganization.NONE
        index_slots = 0
        overflow_buckets: List[Bucket] = []
        order = self.schedule.item_order()

        if self.requirements.needs_old_versions:
            organization = (
                MultiversionOrganization.CLUSTERED
                if self.requirements.organization == "clustered"
                else MultiversionOrganization.OVERFLOW
            )

        layout: Optional[Dict[int, Tuple[int, ...]]] = None
        records: Optional[Dict[int, ItemRecord]] = None
        if organization is MultiversionOrganization.CLUSTERED:
            data_buckets = self._clustered_data_buckets(order, cycle)
            # Item positions shift, so a directory segment rides along.
            index_units = self.size_model.multiversion_clustered(
                len(report.updated_items), max(1, self.item_state.retention)
            ).index_units
            index_slots = max(1, math.ceil(index_units / p.bucket_size))
        else:
            data_buckets, layout, records = self._cycle_data_buckets(
                order, cycle, outcome
            )
            if organization is MultiversionOrganization.OVERFLOW:
                overflow_buckets = self._overflow_buckets()

        self._recent_reports.append(report)

        program = BroadcastProgram(
            cycle=cycle,
            control=control,
            data_buckets=data_buckets,
            overflow_buckets=overflow_buckets,
            control_slots=control_slots,
            index_slots=index_slots,
            organization=organization,
            layout=layout,
            records=records,
        )
        if self._trace_c is not None:
            self._trace_c.emit(
                EV_PROGRAM_BUILD,
                cycle=cycle,
                control_units=control_units,
                updated=len(report.updated_items),
                old_versions=program.total_old_versions,
                organization=organization.value,
                **program.slot_breakdown(),
            )
        return program

    def _flat_data_buckets(self, order: List[int], cycle: int) -> List[Bucket]:
        per_bucket = self.params.items_per_bucket
        needs_old = self.requirements.needs_old_versions
        records_for = self.item_state.records_for
        return [
            Bucket(
                index=index,
                records=records_for(
                    order[start : start + per_bucket], cycle, needs_old
                ),
            )
            for index, start in enumerate(range(0, len(order), per_bucket))
        ]

    def _cycle_data_buckets(
        self, order: List[int], cycle: int, outcome: Optional[CycleOutcome]
    ) -> Tuple[List[Bucket], Optional[Dict[int, Tuple[int, ...]]], Optional[Dict[int, ItemRecord]]]:
        """The flat/overflow data segment, rebuilt copy-on-write.

        Returns ``(buckets, layout, records)``; layout and records feed
        the program's index directly so it never re-scans the buckets.
        The first cycle (and any cycle whose schedule order changed, or a
        builder with ``incremental=False``) pays the full O(DbSize) build;
        afterwards only the buckets holding changed records are recreated.
        """
        # Items whose on-air old-version set changed since the last build:
        # their records' has_old_versions pointer must be recomputed even
        # when the value itself did not change (retention evictions).
        dirty = self.item_state.consume_dirty()
        if not self.incremental:
            return self._flat_data_buckets(order, cycle), None, None
        if self._layout is None or order != self._layout_order:
            buckets = self._flat_data_buckets(order, cycle)
            self._prime_layout(order, buckets)
            records = {
                record.item: record
                for bucket in buckets
                for record in bucket.records
            }
        else:
            changed = set(outcome.updated_items) if outcome is not None else set()
            changed |= dirty
            # Copy-on-write: the previous program keeps its own records
            # dict and bucket list untouched (a desynced faulty client may
            # still be reading the old cycle's view).
            records = dict(self._cached_records)
            buckets = self._cached_buckets
            if changed:
                buckets = list(buckets)
                touched: set = set()
                layout = self._layout
                item_record = self.item_state.item_record
                needs_old = self.requirements.needs_old_versions
                for item in changed:
                    offsets = layout.get(item)
                    if offsets is None:
                        continue  # updated item is not on the air
                    records[item] = item_record(item, cycle, needs_old)
                    touched.update(offsets)
                for offset in touched:
                    chunk = self._bucket_chunks[offset]
                    buckets[offset] = Bucket(
                        index=offset,
                        records=tuple(records[item] for item in chunk),
                    )
        self._cached_buckets = buckets
        self._cached_records = records
        return buckets, self._layout, records

    def _prime_layout(self, order: List[int], buckets: List[Bucket]) -> None:
        """Build the persistent per-item slot index from a full layout."""
        layout: Dict[int, List[int]] = {}
        chunks: List[Tuple[int, ...]] = []
        for offset, bucket in enumerate(buckets):
            chunk = bucket.items
            chunks.append(chunk)
            for item in chunk:
                layout.setdefault(item, []).append(offset)
        self._layout = {item: tuple(offs) for item, offs in layout.items()}
        self._bucket_chunks = chunks
        self._layout_order = list(order)

    def _clustered_data_buckets(self, order: List[int], cycle: int) -> List[Bucket]:
        """Figure 2(a): each item immediately followed by its old versions.

        Buckets are filled greedily by record count; current and old
        records share bucket capacity, so positions drift between cycles.
        """
        store = self.item_state
        # Drain the change feed even though clustered rebuilds fully:
        # only the incremental flat/overflow path consumes it, so without
        # this the dirty set grows for the whole run.
        store.consume_dirty()
        per_bucket = self.params.items_per_bucket
        buckets: List[Bucket] = []
        cur_records: List[ItemRecord] = []
        cur_old: List[OldVersionRecord] = []
        used = 0

        def flush() -> None:
            nonlocal cur_records, cur_old, used
            if cur_records or cur_old:
                buckets.append(
                    Bucket(
                        index=len(buckets),
                        records=tuple(cur_records),
                        old_records=tuple(cur_old),
                    )
                )
            cur_records, cur_old, used = [], [], 0

        for item in order:
            olds = [
                OldVersionRecord(
                    item=item,
                    value=rv.version.value,
                    version=rv.version.cycle,
                    valid_to=rv.valid_to,
                    writer=rv.version.writer,
                )
                for rv in reversed(store.on_air(item))
            ]
            needed = 1 + len(olds)
            if used and used + needed > per_bucket:
                flush()
            cur_records.append(store.item_record(item, cycle, True))
            cur_old.extend(olds)
            used += needed
            if used >= per_bucket:
                flush()
        flush()
        return buckets

    def _overflow_buckets(self) -> List[Bucket]:
        per_bucket = self.params.items_per_bucket
        # Figure 2(b) order (newest supersedure first), kept by the store.
        old_records = self.item_state.overflow_records()
        return [
            Bucket(
                index=index, old_records=old_records[start : start + per_bucket]
            )
            for index, start in enumerate(range(0, len(old_records), per_bucket))
        ]

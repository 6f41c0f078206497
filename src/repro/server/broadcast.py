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
from repro.server.database import Database
from repro.server.itemstate import ItemStateStore
from repro.server.sizing import SizeModel
from repro.server.transactions import CycleOutcome


def bucket_of_item(item: int, items_per_bucket: int) -> int:
    """Logical page number of ``item`` in the flat layout (cache grain)."""
    return (item - 1) // items_per_bucket


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

    When ``item_state`` is a columnar store (``item_state.columnar``),
    record construction and report-bucket projection run off its dense
    arrays instead of per-item version-chain searches; the dict-backed
    reference path is bit-identical (pinned by the columnar oracle
    suite).  ``version_store`` remains the old-version store and is
    ``None`` for schemes that broadcast no old versions -- it may be the
    same object as ``item_state``.
    """

    def __init__(
        self,
        params: ServerParameters,
        database: Database,
        version_store: Optional[ItemStateStore] = None,
        schedule: Optional[Schedule] = None,
        requirements: Optional[BroadcastRequirements] = None,
        bits_per_unit: int = 32,
        tracer: Optional[Tracer] = None,
        incremental: bool = True,
        item_state: Optional[ItemStateStore] = None,
    ) -> None:
        self.params = params
        self.database = database
        self.version_store = version_store
        self.item_state = item_state if item_state is not None else version_store
        #: The columnar store to read fast paths off, or None for the
        #: dict-backed reference path.
        self._columnar = (
            self.item_state
            if self.item_state is not None and self.item_state.columnar
            else None
        )
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

        if self.requirements.needs_old_versions and self.version_store is None:
            raise ValueError(
                "Old versions requested but no VersionStore supplied"
            )

    # -- control segment -----------------------------------------------------

    def _build_report(
        self, cycle: int, outcome: Optional[CycleOutcome]
    ) -> InvalidationReport:
        if outcome is None:
            return InvalidationReport(cycle=cycle)
        store = self._columnar
        buckets_of = (
            store.buckets_of
            if store is not None and store.has_bucket_column
            else None
        )
        return report_from_updates(
            cycle=cycle,
            updated_items=outcome.updated_items,
            first_writers=(
                outcome.first_writers if self.requirements.needs_sgt else None
            ),
            items_per_bucket=self.params.items_per_bucket,
            buckets_of=buckets_of,
        )

    def _control_units(self, report: InvalidationReport, diff: Optional[GraphDiff]) -> int:
        p = self.params
        units = len(report.updated_items) * p.key_size
        if self.requirements.needs_sgt and diff is not None:
            span = self.version_store.retention if self.version_store else 8
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

    # -- data segment -----------------------------------------------------------

    def _item_record(self, item: int, cycle: int) -> ItemRecord:
        version = self.database.value_at(item, cycle)
        has_old = bool(
            self.version_store is not None
            and self.requirements.needs_old_versions
            and self.version_store.on_air(item)
        )
        return ItemRecord(
            item=item,
            value=version.value,
            version=version.cycle,
            writer=version.writer,
            has_old_versions=has_old,
        )

    def _old_records(self) -> List[OldVersionRecord]:
        """All retained versions, newest supersedure first (Figure 2(b))."""
        assert self.version_store is not None
        if self.version_store.columnar:
            # The columnar store keeps the directory incrementally, in
            # exactly this order (cohorts by descending supersedure
            # cycle, items ascending within a cohort).
            return list(self.version_store.overflow_records())
        records: List[Tuple[int, OldVersionRecord]] = []
        for item, retained in self.version_store.all_on_air().items():
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
        return [record for _, record in records]

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
            span = self.version_store.retention if self.version_store else 1
            index_units = self.size_model.multiversion_clustered(
                len(report.updated_items), max(1, span)
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
        store = self._columnar
        buckets: List[Bucket] = []
        if store is not None:
            needs_old = (
                self.version_store is not None
                and self.requirements.needs_old_versions
            )
            records_for = store.records_for
            for index, start in enumerate(range(0, len(order), per_bucket)):
                chunk = order[start : start + per_bucket]
                buckets.append(
                    Bucket(
                        index=index,
                        records=records_for(chunk, cycle, needs_old),
                    )
                )
            return buckets
        for index, start in enumerate(range(0, len(order), per_bucket)):
            chunk = order[start : start + per_bucket]
            records = tuple(self._item_record(item, cycle) for item in chunk)
            buckets.append(Bucket(index=index, records=records))
        return buckets

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
        dirty = (
            self.version_store.consume_dirty()
            if self.version_store is not None
            else frozenset()
        )
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
                store = self._columnar
                needs_old = (
                    self.version_store is not None
                    and self.requirements.needs_old_versions
                )
                for item in changed:
                    offsets = layout.get(item)
                    if offsets is None:
                        continue  # updated item is not on the air
                    records[item] = (
                        store.item_record(item, cycle, needs_old)
                        if store is not None
                        else self._item_record(item, cycle)
                    )
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
        assert self.version_store is not None
        # Drain the change feed even though clustered rebuilds fully:
        # only the incremental flat/overflow path consumes it, so without
        # this the dirty set grows for the whole run.
        self.version_store.consume_dirty()
        store = self._columnar
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
                for rv in reversed(self.version_store.on_air(item))
            ]
            needed = 1 + len(olds)
            if used and used + needed > per_bucket:
                flush()
            cur_records.append(
                store.item_record(item, cycle, True)
                if store is not None
                else self._item_record(item, cycle)
            )
            cur_old.extend(olds)
            used += needed
            if used >= per_bucket:
                flush()
        flush()
        return buckets

    def _overflow_buckets(self) -> List[Bucket]:
        per_bucket = self.params.items_per_bucket
        old_records = self._old_records()
        buckets: List[Bucket] = []
        for index, start in enumerate(range(0, len(old_records), per_bucket)):
            chunk = tuple(old_records[start : start + per_bucket])
            buckets.append(Bucket(index=index, old_records=chunk))
        return buckets

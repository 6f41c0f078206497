"""The physical content of one broadcast cycle.

A program is what the server assembles at the start of a cycle and what
the channel then transmits bucket by bucket:

```
[ control segment ][ data buckets ... ][ overflow buckets ... ]
```

* The control segment carries the :class:`~repro.core.control.ControlInfo`
  (invalidation report, graph diff, window); its length in slots is
  derived from the sizing model.
* Data buckets hold :class:`ItemRecord` s -- current values tagged with
  version (visibility cycle) and last-writer transaction id.  In the
  *clustered* multiversion organization the old versions ride in the data
  buckets right after the current value; in the *overflow* organization
  each record instead carries a pointer into the overflow segment.
* Overflow buckets hold :class:`OldVersionRecord` s in reverse
  chronological order, mirroring Figure 2(b).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.graph.sgraph import TxnId

if TYPE_CHECKING:  # pragma: no cover - break the core <-> broadcast cycle
    from repro.core.control import ControlInfo


class MultiversionOrganization(Enum):
    """Where old versions physically live (Section 3.2, Figure 2)."""

    #: No old versions on the air at all.
    NONE = "none"
    #: All versions of an item transmitted successively (Figure 2(a));
    #: item positions shift between cycles, so an index segment is needed.
    CLUSTERED = "clustered"
    #: Old versions collected in overflow buckets at the end of the bcast
    #: (Figure 2(b)); item positions stay fixed, pointers link versions.
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class ItemRecord:
    """The on-air representation of one (current) data item value."""

    item: int
    value: int
    #: Broadcast cycle at whose beginning this value became current.
    version: int
    #: Last committed transaction that wrote the item (SGT tag); ``None``
    #: for the initial database load.
    writer: Optional[TxnId] = None
    #: Overflow organization only: whether old versions exist on the air
    #: for this item (the "pointer" of Figure 2(b)).
    has_old_versions: bool = False


@dataclass(frozen=True)
class OldVersionRecord:
    """An old version riding in the broadcast.

    ``valid_to`` is the last cycle during which the value was current (its
    successor became current at ``valid_to + 1``).
    """

    item: int
    value: int
    version: int
    valid_to: int
    writer: Optional[TxnId] = None

    def covers(self, cycle: int) -> bool:
        """Was this value the current one at ``cycle``?"""
        return self.version <= cycle <= self.valid_to


@dataclass(frozen=True)
class Bucket:
    """The smallest logical broadcast unit (Section 2.1).

    The header of a real system (offset to bcast start / next bcast) is
    implicit: the channel knows every bucket's slot position.
    """

    index: int
    records: Tuple[ItemRecord, ...] = ()
    old_records: Tuple[OldVersionRecord, ...] = ()

    @property
    def items(self) -> Tuple[int, ...]:
        return tuple(record.item for record in self.records)


def index_data_buckets(
    buckets: Sequence[Bucket],
) -> Tuple[Dict[int, Tuple[int, ...]], Dict[int, ItemRecord]]:
    """``(layout, records)`` of a data segment, by scanning it: item ->
    every data-bucket offset it appears in, sorted ascending (broadcast
    disks repeat items), and item -> its record at the last of them."""
    offsets: Dict[int, List[int]] = {}
    records: Dict[int, ItemRecord] = {}
    for offset, bucket in enumerate(buckets):
        for record in bucket.records:
            offsets.setdefault(record.item, []).append(offset)
            records[record.item] = record
    return {item: tuple(offs) for item, offs in offsets.items()}, records


class BroadcastProgram:
    """One cycle's fully laid-out broadcast.

    Parameters
    ----------
    cycle:
        The broadcast cycle number this program airs in.
    control:
        Control segment content.
    control_slots:
        Length of the control segment in slots (>= 1: clients always need
        one slot to hear the report).
    index_slots:
        Extra index segment (clustered multiversion organization only).
    data_buckets / overflow_buckets:
        The payload.
    layout / records:
        Fast path for the incremental cycle build (see
        :class:`~repro.server.broadcast.ProgramBuilder`) and the
        listener's assembly (:meth:`~repro.live.codec.CycleCodec.assemble`):
        ``layout`` maps each item to its sorted tuple of data-bucket
        offsets and ``records`` to its current :class:`ItemRecord`, as
        :func:`index_data_buckets` would find them.  The layout is
        *shared* between consecutive programs -- item positions inside the
        data segment are fixed in the flat and overflow organizations --
        so it must never be mutated; ``records`` is owned by this program.
        When omitted, both indexes are built by scanning the buckets.
        A listener's program may hold, in ``data_buckets``, a payload it
        has not parsed yet (see
        :meth:`~repro.live.codec.CycleCodec.hear_data`): an object whose
        ``parse()`` returns the :class:`Bucket`, whose items are in
        ``layout`` but not in ``records`` until a lookup misses on one.
    """

    def __init__(
        self,
        cycle: int,
        control: "ControlInfo",
        data_buckets: Sequence[Bucket],
        overflow_buckets: Sequence[Bucket] = (),
        control_slots: int = 1,
        index_slots: int = 0,
        organization: MultiversionOrganization = MultiversionOrganization.NONE,
        *,
        layout: Optional[Dict[int, Tuple[int, ...]]] = None,
        records: Optional[Dict[int, ItemRecord]] = None,
    ) -> None:
        if control_slots < 1:
            raise ValueError("control_slots must be at least 1")
        self.cycle = cycle
        self.control = control
        self.control_slots = control_slots
        self.index_slots = index_slots
        self.data_buckets = list(data_buckets)
        self.overflow_buckets = list(overflow_buckets)
        self.organization = organization

        # Slot layout: control, index, data, overflow.
        self._data_start = control_slots + index_slots
        self._overflow_start = self._data_start + len(self.data_buckets)
        self.total_slots = self._overflow_start + len(self.overflow_buckets)

        # Offsets are cycle-invariant even though absolute slots shift
        # with the control segment's length.
        self._scanned_data = layout is None or records is None
        if self._scanned_data:
            layout, records = index_data_buckets(self.data_buckets)
        self._item_offsets: Dict[int, Tuple[int, ...]] = layout
        self._item_records: Dict[int, ItemRecord] = records

    @cached_property
    def _old_versions(self) -> Dict[int, List[Tuple[OldVersionRecord, int]]]:
        """Old versions: item -> records, plus the slot each rides in.

        Built on the first old-version lookup: a server that only airs
        the program never asks for it."""
        old_versions: Dict[int, List[Tuple[OldVersionRecord, int]]] = {}
        for offset, bucket in enumerate(self.overflow_buckets):
            slot = self._overflow_start + offset
            for old in bucket.old_records:
                old_versions.setdefault(old.item, []).append((old, slot))
        # Clustered organization: old versions ride in the data buckets.
        # The incremental path never carries old records there (flat and
        # overflow layouts only), so the scan is skipped with the layout.
        if self._scanned_data:
            for offset, bucket in enumerate(self.data_buckets):
                slot = self._data_start + offset
                for old in bucket.old_records:
                    old_versions.setdefault(old.item, []).append((old, slot))
        return old_versions

    # -- lookups --------------------------------------------------------------

    @property
    def items(self) -> Sequence[int]:
        return list(self._item_offsets)

    def record_of(self, item: int) -> ItemRecord:
        """The current-value record of ``item`` in this cycle."""
        record = self._item_records.get(item)
        if record is None:
            return self._parse_held(item)
        return record

    def _parse_held(self, item: int) -> ItemRecord:
        """The lookup miss: parse the payload held unparsed where
        ``item``'s record rides (its last offset), and file every record
        it is the copy of."""
        offsets = self._item_offsets.get(item)
        if offsets:
            offset = offsets[-1]
            held = self.data_buckets[offset]
            if type(held) is not Bucket:
                bucket = self.data_buckets[offset] = held.parse()
                layout, records = self._item_offsets, self._item_records
                for record in bucket.records:
                    if layout[record.item][-1] == offset:
                        records[record.item] = record
                return records[item]
        raise KeyError(f"Item {item} is not in this broadcast")

    def slots_of(self, item: int) -> List[int]:
        """All slots (cycle-relative) carrying ``item``'s current value."""
        offsets = self._item_offsets.get(item)
        if not offsets:
            raise KeyError(f"Item {item} is not in this broadcast")
        start = self._data_start
        return [start + offset for offset in offsets]

    def first_slot_of(self, item: int) -> int:
        """The first slot carrying ``item``'s current value: where a
        cache autoprefetch armed at the cycle start takes it."""
        offsets = self._item_offsets.get(item)
        if not offsets:
            raise KeyError(f"Item {item} is not in this broadcast")
        return self._data_start + offsets[0]

    def next_slot_of(self, item: int, after: float) -> Optional[int]:
        """First slot of ``item`` delivered *at or after* cycle-relative
        time ``after``; ``None`` if every copy has already flown by (the
        client must wait for the next cycle).

        A bucket is delivered at the middle of its slot, and the delivery
        instant is inclusive: a process that wakes exactly at
        ``delivery_time(slot)`` (e.g. resuming from a timeout landing on
        the boundary, or reading a second item out of the bucket it just
        heard) still receives that copy.  The earlier strict ``>`` made
        such a process silently wait a full extra cycle.
        """
        offsets = self._item_offsets.get(item)
        if not offsets:
            return None
        start = self._data_start
        if len(offsets) == 1:  # flat layout: one copy per cycle
            slot = start + offsets[0]
            return slot if slot + 0.5 >= after else None
        index = bisect_left(offsets, after, key=lambda o: start + o + 0.5)
        if index == len(offsets):
            return None
        return start + offsets[index]

    def old_version_at(
        self, item: int, cycle: int
    ) -> Optional[Tuple[OldVersionRecord, int]]:
        """The old version of ``item`` current at ``cycle``, with its slot.

        Returns ``None`` when no on-air old version covers the cycle; the
        caller should also check :meth:`record_of` (the current value may
        itself be old enough).
        """
        for old, slot in self._old_versions.get(item, ()):
            if old.covers(cycle):
                return (old, slot)
        return None

    def page_of(self, item: int) -> int:
        """Logical page (data-bucket index) of ``item`` -- the granularity
        of cache invalidation and of the bucket-level reports (§7)."""
        offsets = self._item_offsets.get(item)
        if not offsets:
            raise KeyError(f"Item {item} is not in this broadcast")
        return offsets[0]

    def old_versions_of(self, item: int) -> List[OldVersionRecord]:
        return [old for old, _ in self._old_versions.get(item, ())]

    @property
    def total_old_versions(self) -> int:
        return sum(len(v) for v in self._old_versions.values())

    def slot_breakdown(self) -> Dict[str, int]:
        """Airtime accounting for one cycle, segment by segment.

        The keys match the fields the tracer attaches to ``cycle.start``
        events, so ``repro trace airtime`` can be cross-checked against
        the program that actually flew.
        """
        return {
            "control_slots": self.control_slots,
            "index_slots": self.index_slots,
            "data_slots": len(self.data_buckets),
            "overflow_slots": len(self.overflow_buckets),
            "slots": self.total_slots,
        }

    def __repr__(self) -> str:
        return (
            f"<BroadcastProgram cycle={self.cycle} slots={self.total_slots} "
            f"(control={self.control_slots}, index={self.index_slots}, "
            f"data={len(self.data_buckets)}, overflow={len(self.overflow_buckets)})>"
        )

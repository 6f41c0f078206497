"""The broadcast-disk organization of Acharya et al. [1], which the paper
proposes as future work (Section 7): hot items are placed on "faster
disks" and appear several times per cycle.  It is a
:class:`~repro.broadcast.schedule.Schedule`, so a run takes it through
``Simulation(schedule=...)``; ``test_broadcast_disks.py`` runs the
extension and ``tests/broadcast/test_schedule.py`` checks the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.broadcast.schedule import Schedule


@dataclass(frozen=True)
class DiskSpec:
    """One broadcast disk: a contiguous key range and a relative speed.

    ``frequency`` is how many times per major cycle the disk's chunks are
    transmitted; the classic example is a 3-disk program with frequencies
    (4, 2, 1).
    """

    first: int
    last: int
    frequency: int

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise ValueError(f"Empty disk range {self.first}..{self.last}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")

    @property
    def items(self) -> List[int]:
        return list(range(self.first, self.last + 1))


class BroadcastDiskSchedule(Schedule):
    """Multi-disk schedule after Acharya et al. SIGMOD'95.

    Each disk ``i`` is split into ``max_freq / freq_i`` chunks; the major
    cycle interleaves one chunk from every disk per minor cycle, so a disk
    with frequency ``f`` has each of its items appear ``f`` times per major
    cycle.  Frequencies must divide the maximum frequency (the standard
    broadcast-disk constraint).
    """

    def __init__(self, disks: Sequence[DiskSpec]) -> None:
        if not disks:
            raise ValueError("At least one disk is required")
        covered: set = set()
        for disk in disks:
            overlap = covered & set(disk.items)
            if overlap:
                raise ValueError(f"Disks overlap on items {sorted(overlap)[:5]}...")
            covered.update(disk.items)
        self.disks = list(disks)
        max_freq = max(d.frequency for d in disks)
        for disk in disks:
            if max_freq % disk.frequency != 0:
                raise ValueError(
                    f"Frequency {disk.frequency} does not divide the maximum "
                    f"frequency {max_freq}"
                )
        self.max_frequency = max_freq
        self._order = self._build_order()

    def _build_order(self) -> List[int]:
        # Split each disk into (max_freq / freq) chunks of near-equal size.
        chunks_per_disk: List[List[List[int]]] = []
        for disk in self.disks:
            num_chunks = self.max_frequency // disk.frequency
            items = disk.items
            size = math.ceil(len(items) / num_chunks)
            chunks = [items[i : i + size] for i in range(0, len(items), size)]
            while len(chunks) < num_chunks:
                chunks.append([])  # pad with empty chunks to keep cadence
            chunks_per_disk.append(chunks)

        order: List[int] = []
        for minor in range(self.max_frequency):
            for disk, chunks in zip(self.disks, chunks_per_disk):
                # The whole disk every minor cycle when frequency == max;
                # otherwise the chunk whose turn it is.
                if disk.frequency == self.max_frequency:
                    order.extend(disk.items)
                else:
                    order.extend(chunks[minor % len(chunks)])
        return order

    def item_order(self) -> List[int]:
        return list(self._order)

    def frequency_of(self, item: int) -> int:
        for disk in self.disks:
            if disk.first <= item <= disk.last:
                return disk.frequency
        raise KeyError(f"Item {item} is on no disk")

    @classmethod
    def classic(cls, size: int, hot_fraction: float = 0.1) -> "BroadcastDiskSchedule":
        """A conventional 3-disk (4, 2, 1) program over ``1..size``.

        The hottest ``hot_fraction`` of items go on the fast disk, the next
        ``2 * hot_fraction`` on the medium disk, the rest on the slow one.
        """
        hot_end = max(1, int(size * hot_fraction))
        warm_end = min(size, hot_end + max(1, int(2 * size * hot_fraction)))
        disks = [DiskSpec(1, hot_end, 4)]
        if warm_end > hot_end:
            disks.append(DiskSpec(hot_end + 1, warm_end, 2))
        if size > warm_end:
            disks.append(DiskSpec(warm_end + 1, size, 1))
        return cls(disks)

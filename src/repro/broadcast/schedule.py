"""Broadcast schedules: in what order items hit the air.

The paper evaluates a *flat* organization -- every item exactly once per
cycle, in key order.  A :class:`Schedule` is a pure item-order generator
that :class:`~repro.server.broadcast.ProgramBuilder` accepts, so a skewed
order (the broadcast-disk organization of Section 7, which
``tests/integration/broadcast_disks.py`` builds) drops in without touching
bucketization and timing, which live in :mod:`repro.broadcast.program`
and :mod:`repro.broadcast.channel`.
"""

from __future__ import annotations

from typing import List


class Schedule:
    """Base class: a concrete schedule yields the per-cycle item order."""

    def item_order(self) -> List[int]:
        """The sequence of item numbers transmitted in one cycle."""
        raise NotImplementedError

    @property
    def length(self) -> int:
        """Items transmitted per cycle (>= database size if items repeat)."""
        return len(self.item_order())


class FlatSchedule(Schedule):
    """Every item once per cycle, in ascending key order (the paper's
    base organization -- clients can keep a static directory)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._order = list(range(1, size + 1))

    def item_order(self) -> List[int]:
        return list(self._order)

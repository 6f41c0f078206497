"""Crash-restart recovery: checkpointable client state and resync choice.

A *crash* loses everything a client holds in memory -- cache, scheme
control state, the active query attempt -- and keeps the client off the
air for a multi-cycle outage.  On restart the client may restore the
latest :class:`ClientCheckpoint` and then has two resync protocols:

* **incremental catch-up** -- if the control segment's w-window
  retransmission covers every cycle between the checkpoint and the
  restart (and the outage is within ``catchup_window``), replay the
  missed invalidation reports over the restored cache, exactly like the
  live resynchronization path (§7) whose safety argument it inherits;
* **full flush-and-rejoin** -- otherwise the restored cache cannot be
  trusted and is dropped; the client rejoins cold.

Scheme control state is restored through the
:meth:`~repro.core.base.Scheme.restore_state` hook, which receives the
number of unheard cycles so schemes with gap-sensitive state (SGT's
serialization graph) can refuse the stale part and keep only what stays
safe across a gap.

Crash schedules reuse the storm-window machinery of
:mod:`repro.faults.models` with an independent RNG, so crashes are
seeded and bit-identical per (seed, client) like every other impairment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.faults.models import compute_storm_windows

if TYPE_CHECKING:  # pragma: no cover - avoids a client<->resilience cycle
    from repro.client.cache import CacheEntry


@dataclass
class ClientCheckpoint:
    """A durable snapshot of one client's recoverable state."""

    #: Last cycle fully heard before the checkpoint was taken.
    cycle: int
    #: Current-partition cache entries (copies, autoprefetches excluded).
    cache_current: List["CacheEntry"] = field(default_factory=list)
    #: Old-partition cache entries (multiversion caching only).
    cache_old: List["CacheEntry"] = field(default_factory=list)
    #: Opaque per-scheme control state from ``Scheme.export_state``.
    scheme_state: Optional[Dict[str, Any]] = None


class CheckpointStore:
    """Holds the latest checkpoint, written every ``interval`` cycles.

    Only the newest snapshot matters for recovery, so the store keeps
    exactly one (plus a save counter for the metrics layer).
    """

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.latest: Optional[ClientCheckpoint] = None
        self.saves = 0

    def due(self, cycle: int) -> bool:
        """Is a checkpoint due at this heard cycle?"""
        return cycle % self.interval == 0

    def save(self, checkpoint: ClientCheckpoint) -> None:
        self.latest = checkpoint
        self.saves += 1


class CrashSchedule:
    """Seeded multi-cycle crash outages for one client.

    ``windows`` are inclusive ``(first, last)`` cycle ranges during which
    the client is down; they are drawn independently per client (a crash
    is a property of one machine, unlike a cell-wide storm).
    """

    def __init__(self, windows: List[Tuple[int, int]]) -> None:
        self.windows = list(windows)
        self._by_start = {first: (first, last) for first, last in self.windows}

    @classmethod
    def draw(
        cls,
        rng: random.Random,
        num_cycles: int,
        rate: float,
        mean_length: float,
    ) -> "CrashSchedule":
        return cls(compute_storm_windows(rng, num_cycles, rate, mean_length))

    def crash_starting_at(self, cycle: int) -> Optional[Tuple[int, int]]:
        """The crash window starting exactly at ``cycle``, if any."""
        return self._by_start.get(cycle)


def select_resync(
    checkpoint: Optional[ClientCheckpoint],
    restart_cycle: int,
    catchup_window: int,
    window_covered: bool,
) -> str:
    """Pick the resync protocol for a restart at ``restart_cycle``.

    Returns ``"catchup"`` when a checkpoint exists, the outage since it
    is within ``catchup_window`` cycles, and the control window actually
    retransmits every missed report; else ``"rejoin"`` (cold start).
    """
    if checkpoint is None:
        return "rejoin"
    outage = restart_cycle - checkpoint.cycle
    if outage <= catchup_window and window_covered:
        return "catchup"
    return "rejoin"

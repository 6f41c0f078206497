"""Composable, seeded fault models for the broadcast air interface.

The paper's performance model assumes a perfect downstream channel; real
wireless links lose buckets to noise and fading, corrupt control
segments, cut cycles short, and disconnect whole cells at once.  Each
class here models one independent impairment as a deterministic function
of its own seeded RNG, and a pipeline of models is folded over a
:class:`CycleFate` at every cycle start to decide what one *client*
actually receives of that cycle:

* :class:`SlotLoss` -- i.i.d. per-slot bucket loss (thermal noise);
* :class:`BurstLoss` -- Gilbert-style two-state fading: losses arrive in
  runs whose mean length is configurable;
* :class:`ControlCorruption` -- the control bucket fails its checksum and
  is dropped, so the whole cycle is unusable for validation;
* :class:`TruncatedCycle` -- the tail of the cycle never reaches the
  client (transmitter handoff, deep fade at end of cycle);
* :class:`ReportDelay` -- the control segment decodes late: the client
  synchronizes mid-cycle and the slots that flew before are gone;
* :class:`StormDisconnections` -- correlated multi-cycle outages hitting
  a fraction of all clients at once (cell-wide fades), composed with the
  regular :class:`~repro.client.disconnect.DisconnectionModel` machinery.

Everything is seeded: same parameters + same seed = bit-identical fault
schedule, which the differential test suite relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.client.disconnect import DisconnectionModel
from repro.obs.trace import (
    EV_FAULT_REPORT_DELAYED,
    EV_FAULT_REPORT_MISSED,
    EV_FAULT_TRUNCATED,
    Tracer,
)
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry


@dataclass
class CycleFate:
    """What one client receives of one broadcast cycle.

    Built fresh at every cycle start and passed through the fault
    pipeline; each model only ever *degrades* the fate (adds lost slots,
    sets flags), so model order does not matter for correctness.
    """

    cycle: int
    total_slots: int
    control_slots: int
    #: The control segment was lost or corrupted: the client cannot
    #: validate anything this cycle and must treat it as missed.
    control_lost: bool = False
    #: Slots (cycle-relative) whose buckets never reach the client.
    lost_slots: Set[int] = field(default_factory=set)
    #: The control segment decodes only this many slots into the cycle.
    control_delay: float = 0.0
    #: A truncation model cut this cycle short (metrics flag).
    truncated: bool = False

    def lose_range(self, first: int, last: int) -> None:
        """Mark every slot in ``[first, last)`` as lost."""
        self.lost_slots.update(range(max(0, first), min(last, self.total_slots)))

    @property
    def data_slots_lost(self) -> int:
        """Lost slots outside the control segment (metric input)."""
        return sum(1 for s in self.lost_slots if s >= self.control_slots)


class FaultModel:
    """One impairment; owns its RNG so models stay independently seeded."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def apply(self, fate: CycleFate) -> None:
        raise NotImplementedError


class SlotLoss(FaultModel):
    """Independent per-slot loss with probability ``p``.

    Control slots are ordinary buckets on the air, so they are lost with
    the same probability -- a lost control slot surfaces as
    ``control_lost`` (the checksum catches the gap).
    """

    def __init__(self, p: float, rng: random.Random) -> None:
        super().__init__(rng)
        self.p = p

    def apply(self, fate: CycleFate) -> None:
        for slot in range(fate.total_slots):
            if self.rng.random() < self.p:
                fate.lost_slots.add(slot)


class BurstLoss(FaultModel):
    """Two-state (Gilbert) fading: bad states lose every slot.

    ``p_start`` is the per-slot probability of entering the bad state;
    once bad, the state exits with probability ``1 / mean_length`` per
    slot, giving geometrically distributed burst lengths.  The state
    persists across cycle boundaries, as real fades do.
    """

    def __init__(self, p_start: float, mean_length: float, rng: random.Random) -> None:
        super().__init__(rng)
        self.p_start = p_start
        self.p_stop = 1.0 / max(1.0, mean_length)
        self._bad = False

    def apply(self, fate: CycleFate) -> None:
        for slot in range(fate.total_slots):
            if not self._bad and self.rng.random() < self.p_start:
                self._bad = True
            if self._bad:
                fate.lost_slots.add(slot)
                if self.rng.random() < self.p_stop:
                    self._bad = False


class ControlCorruption(FaultModel):
    """The control bucket fails its checksum with probability ``p``."""

    def __init__(self, p: float, rng: random.Random) -> None:
        super().__init__(rng)
        self.p = p

    def apply(self, fate: CycleFate) -> None:
        if self.rng.random() < self.p:
            fate.control_lost = True


class TruncatedCycle(FaultModel):
    """With probability ``p`` the cycle's tail is cut off.

    The cut point is uniform in ``[min_fraction, 1)`` of the cycle (never
    before the control segment: a truncation that ate the control is a
    control loss, which :class:`ControlCorruption` models separately).
    """

    def __init__(self, p: float, min_fraction: float, rng: random.Random) -> None:
        super().__init__(rng)
        self.p = p
        self.min_fraction = min_fraction

    def apply(self, fate: CycleFate) -> None:
        if self.rng.random() >= self.p:
            return
        cut = self.rng.uniform(self.min_fraction, 1.0)
        first_lost = max(fate.control_slots, int(cut * fate.total_slots))
        if first_lost < fate.total_slots:
            fate.lose_range(first_lost, fate.total_slots)
            fate.truncated = True


class ReportDelay(FaultModel):
    """With probability ``p`` the control segment decodes late.

    The delay is uniform in ``[1, max_delay]`` slots; every bucket that
    flew before the client synchronized is lost to it.  A delay reaching
    the end of the cycle degenerates to a control loss (see
    :func:`decide_fate`).
    """

    def __init__(self, p: float, max_delay: float, rng: random.Random) -> None:
        super().__init__(rng)
        self.p = p
        self.max_delay = max_delay

    def apply(self, fate: CycleFate) -> None:
        if self.rng.random() < self.p:
            delay = self.rng.uniform(1.0, self.max_delay)
            fate.control_delay = max(fate.control_delay, delay)


def decide_fate(
    pipeline: Sequence[FaultModel],
    cycle: int,
    total_slots: int,
    control_slots: int,
    metrics: MetricsRegistry,
    client_id: int = 0,
    trace: Optional[Tracer] = None,
) -> CycleFate:
    """What one client receives of ``cycle``, decided at its boundary.

    Folds ``pipeline`` over a fresh :class:`CycleFate`, then applies the
    degeneration rules every receiver shares: a control segment that
    decodes only after the cycle ended, or one of whose slots is lost, is
    a lost control segment (the cycle is missed); a control segment that
    decodes late costs the client every slot that flew before it
    synchronized.  The fault counters tick here, and the matching events
    go to ``trace`` -- a tracer already gated on ``queries``, or ``None``.
    """
    fate = CycleFate(cycle, total_slots, control_slots)
    for model in pipeline:
        model.apply(fate)
    if fate.control_delay >= total_slots or any(
        slot < control_slots for slot in fate.lost_slots
    ):
        fate.control_lost = True
    if fate.truncated:
        metrics.count(metric_names.FAULT_CYCLES_TRUNCATED)
        if trace is not None:
            trace.emit(
                EV_FAULT_TRUNCATED, client=client_id, cycle=cycle,
                lost_slots=fate.data_slots_lost,
            )
    # Counted as the models left it: slots given up to a late decode
    # below are the delay's cost, not independent losses.
    metrics.count(metric_names.FAULT_SLOTS_LOST, fate.data_slots_lost)
    if fate.control_lost:
        metrics.count(metric_names.FAULT_REPORTS_MISSED)
        if trace is not None:
            trace.emit(EV_FAULT_REPORT_MISSED, client=client_id, cycle=cycle)
    elif fate.control_delay > 0:
        metrics.count(metric_names.FAULT_REPORTS_DELAYED)
        if trace is not None:
            trace.emit(
                EV_FAULT_REPORT_DELAYED, client=client_id, cycle=cycle,
                delay=fate.control_delay,
            )
        fate.lost_slots.update(
            slot for slot in range(total_slots) if slot + 0.5 < fate.control_delay
        )
    return fate


#: Inclusive cycle ranges during which a storm is in progress.
StormWindows = Sequence[Tuple[int, int]]


def compute_storm_windows(
    rng: random.Random,
    num_cycles: int,
    rate: float,
    mean_length: float,
) -> List[Tuple[int, int]]:
    """Draw the shared storm schedule for one simulation run.

    Storms start at any cycle with probability ``rate`` and last
    ``1 + Geometric(1 / mean_length)`` cycles; the schedule is global --
    every client sees the same windows -- because a storm is a property
    of the cell, not of one receiver.
    """
    windows: List[Tuple[int, int]] = []
    p_stop = 1.0 / max(1.0, mean_length)
    cycle = 1
    while cycle <= num_cycles:
        if rng.random() < rate:
            length = 1
            while rng.random() > p_stop:
                length += 1
            windows.append((cycle, cycle + length - 1))
            cycle += length
        else:
            cycle += 1
    return windows


class StormDisconnections(DisconnectionModel):
    """Per-client participation in the shared storm windows.

    Whether a given client is inside a storm's footprint is decided once
    per window (with probability ``participation``), so a hit client is
    deaf for the storm's whole duration -- the correlated outage pattern
    that distinguishes storms from the independent
    :class:`~repro.client.disconnect.RandomDisconnections`.
    """

    def __init__(
        self,
        windows: StormWindows,
        participation: float,
        rng: random.Random,
        metrics=None,
    ) -> None:
        self.windows = list(windows)
        self.participation = participation
        self.rng = rng
        self.metrics = metrics
        self._hit: dict = {}

    def is_listening(self, cycle: int) -> bool:
        for index, (first, last) in enumerate(self.windows):
            if first <= cycle <= last:
                hit = self._hit.get(index)
                if hit is None:
                    hit = self._hit[index] = self.rng.random() < self.participation
                    if hit and self.metrics is not None:
                        self.metrics.count("fault.storm_outages")
                return not hit
        return True


def build_pipeline(faults, rng: random.Random) -> List[FaultModel]:
    """One client's fault pipeline from a :class:`FaultParameters`.

    Every model draws its own sub-seed in a fixed order, so adding or
    removing one impairment never perturbs the others' schedules; only
    the active ones build a generator from theirs.
    """
    seeds = [rng.getrandbits(64) for _ in range(5)]
    pipeline: List[FaultModel] = []
    if faults.slot_loss > 0:
        pipeline.append(SlotLoss(faults.slot_loss, random.Random(seeds[0])))
    if faults.burst_rate > 0:
        pipeline.append(
            BurstLoss(
                faults.burst_rate, faults.burst_length, random.Random(seeds[1])
            )
        )
    if faults.control_loss > 0:
        pipeline.append(
            ControlCorruption(faults.control_loss, random.Random(seeds[2]))
        )
    if faults.truncation > 0:
        pipeline.append(
            TruncatedCycle(
                faults.truncation,
                faults.truncation_min_fraction,
                random.Random(seeds[3]),
            )
        )
    if faults.report_delay > 0:
        pipeline.append(
            ReportDelay(
                faults.report_delay, faults.report_max_delay, random.Random(seeds[4])
            )
        )
    return pipeline

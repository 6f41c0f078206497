"""A client's fault pipeline builds generators for its active impairments only.

:func:`repro.faults.models.build_pipeline` draws all five sub-seeds in a
fixed order, whichever impairments are on, and seeds a generator for
each active one.  Against a reference that builds all five generators,
every subset of the impairments must decide the same fates.
"""

from __future__ import annotations

import itertools
import random
from typing import List

import pytest

from repro.config import FaultParameters
from repro.faults.models import (
    BurstLoss,
    ControlCorruption,
    FaultModel,
    ReportDelay,
    SlotLoss,
    TruncatedCycle,
    build_pipeline,
    decide_fate,
)
from repro.stats.metrics import MetricsRegistry

#: Each impairment's knobs when it is on; off, its probability is 0.
IMPAIRMENTS = {
    "slot_loss": dict(slot_loss=0.05),
    "burst": dict(burst_rate=0.02, burst_length=3.0),
    "control_loss": dict(control_loss=0.1),
    "truncation": dict(truncation=0.1, truncation_min_fraction=0.4),
    "report_delay": dict(report_delay=0.1, report_max_delay=6.0),
}


def _reference_pipeline(faults, rng: random.Random) -> List[FaultModel]:
    """The pipeline as built with one generator per impairment, on or off."""
    seeds = [random.Random(rng.getrandbits(64)) for _ in range(5)]
    pipeline: List[FaultModel] = []
    if faults.slot_loss > 0:
        pipeline.append(SlotLoss(faults.slot_loss, seeds[0]))
    if faults.burst_rate > 0:
        pipeline.append(BurstLoss(faults.burst_rate, faults.burst_length, seeds[1]))
    if faults.control_loss > 0:
        pipeline.append(ControlCorruption(faults.control_loss, seeds[2]))
    if faults.truncation > 0:
        pipeline.append(
            TruncatedCycle(faults.truncation, faults.truncation_min_fraction, seeds[3])
        )
    if faults.report_delay > 0:
        pipeline.append(ReportDelay(faults.report_delay, faults.report_max_delay, seeds[4]))
    return pipeline


def _fates(pipeline, cycles=200):
    metrics = MetricsRegistry()
    fates = []
    for cycle in range(cycles):
        fate = decide_fate(pipeline, cycle, 60, 4, metrics)
        fates.append(
            (
                sorted(fate.lost_slots),
                fate.control_lost,
                fate.control_delay,
                fate.truncated,
            )
        )
    return fates, metrics.snapshot()


SUBSETS = [
    subset
    for size in range(len(IMPAIRMENTS) + 1)
    for subset in itertools.combinations(IMPAIRMENTS, size)
]


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "none")
def test_every_subset_decides_the_reference_fates(subset):
    knobs = {}
    for name in subset:
        knobs.update(IMPAIRMENTS[name])
    faults = FaultParameters(**knobs)
    for seed in (1, 2**63 + 5):
        mine, theirs = random.Random(seed), random.Random(seed)
        pipeline = build_pipeline(faults, mine)
        reference = _reference_pipeline(faults, theirs)
        assert len(pipeline) == len(subset)
        # Both drew the five sub-seeds: the client's later streams agree.
        assert mine.getstate() == theirs.getstate()
        assert _fates(pipeline) == _fates(reference)

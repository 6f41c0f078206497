"""Cohort replay walks each member through a window of cycles at a time.

The driver takes up to :data:`~repro.cohort.engine.CYCLE_WINDOW` cycles
off the air and delivers all of them to one member before the next
(DESIGN §12, "Loop order").  Members share nothing but the registry, so
the run must equal the discrete one exactly whatever the run's length
is against the window: shorter than one window, one short of it, one
exactly, one past it, and several windows with a short last one.
"""

from __future__ import annotations

import pytest

from repro.cohort import engine
from repro.cohort.engine import CYCLE_WINDOW, CohortSimulation
from repro.cohort.oracle import oracle_params, registry_delta, result_delta
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation
from repro.stats.names import (
    FAULT_REPORTS_DELAYED,
    FAULT_REPORTS_MISSED,
    FAULT_STORM_OUTAGES,
)
from tests.cohort.test_fanout import _disconnects

SCHEMES = ("inval+cache", "sgt+cache", "multiversion+cache", "versioned-cache")
#: Run lengths around the window's edges; the last is two full windows
#: and a short one.
LENGTHS = (1, CYCLE_WINDOW - 1, CYCLE_WINDOW, CYCLE_WINDOW + 1, 40)


@pytest.mark.parametrize("num_cycles", LENGTHS)
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_windowed_run_equals_the_discrete_run(
    monkeypatch, scheme, faulty, num_cycles
):
    """Faulty cells add every impairment of the oracle's mix (storms,
    delayed and lost control segments included) and random
    disconnections; five clients in chunks of two cross chunks.  No
    warm-up, so a one-cycle run counts its one cycle."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)
    params = oracle_params(
        5, seed=11, faults=faulty, num_cycles=num_cycles
    ).with_sim(warmup_cycles=0)
    disconnects = _disconnects if faulty else None
    factory = scheme_factory(scheme)
    discrete = Simulation(
        params, scheme_factory=factory, disconnect_factory=disconnects
    ).run()
    cohort = CohortSimulation(
        params, factory, disconnect_factory=disconnects, cohort_size=2
    ).run()
    assert cohort.cycles_completed == num_cycles
    assert result_delta(discrete, cohort) == []
    assert registry_delta(discrete.metrics, cohort.metrics) == []
    if faulty and num_cycles == LENGTHS[-1]:
        for name in (FAULT_STORM_OUTAGES, FAULT_REPORTS_DELAYED, FAULT_REPORTS_MISSED):
            assert cohort.metrics.get_counter(name).value > 0, name


def test_windows_across_processes_give_the_same_run(monkeypatch):
    """Several windows and chunks: the members' order within a chunk
    depends only on the chunk and the window, so the whole snapshot,
    Welford means included, is the same for one process and two."""
    params = oracle_params(7, seed=23, faults=True, num_cycles=40).with_faults(
        storm_rate=0.3
    )
    snapshots = []
    for cores in (1, 2):
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        sim = CohortSimulation(
            params,
            scheme_factory("sgt+cache"),
            disconnect_factory=_disconnects,
            cohort_size=2,
        )
        snapshots.append(sim.run().metrics.snapshot())
    assert snapshots[0] == snapshots[1]
    assert list(snapshots[0]) == list(snapshots[1])

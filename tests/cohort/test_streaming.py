"""Cohort replay holds only live state: the air streams past the members.

The driver feeds each chunk's members from
:meth:`~repro.cohort.trace.KernellessServer.cycles` as it yields and
records nothing, so what a run holds does not grow with its length
(DESIGN §17, "Cohort replay").  Two nets, both watching from inside the
run through :func:`repro.cohort.engine.build_trace`, the one step the
driver takes per cycle:

* the bound: at cycle 30 and at cycle 90 alike, a handful of
  ``BroadcastProgram`` objects are alive -- the server's last build and
  what the members have installed, never the run's broadcast;
* a ``slow`` lane (``REPRO_SCALE_TESTS=1``): 10^4 cycles with the run's
  traced memory flat from cycle 4 000 on.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.broadcast.program import BroadcastProgram
from repro.cohort import engine
from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params, scheme_factory


def _watched_run(monkeypatch, params, scheme, watch, cohort_size=4096):
    """Run a cohort replay in this process, calling ``watch(cycle)``
    each time the driver steps a chunk's server onto a new cycle, before
    any member hears it.  One usable core keeps every chunk here, where
    the watch and the memory probes can see it."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)
    step = engine.build_trace

    def watched(cycles):
        record = step(cycles)
        if record is not None:
            watch(record.cycle)
        return record

    monkeypatch.setattr(engine, "build_trace", watched)
    sim = CohortSimulation(
        params, scheme_factory(scheme), cohort_size=cohort_size
    )
    result = sim.run()
    assert result.cycles_completed == params.sim.num_cycles
    return result


def _live_programs() -> int:
    gc.collect()
    return sum(
        1 for obj in gc.get_objects() if isinstance(obj, BroadcastProgram)
    )


@pytest.mark.parametrize("cohort_size", [2, 4096])
def test_a_run_holds_the_programs_on_the_air_not_the_broadcast(
    monkeypatch, cohort_size
):
    params = oracle_params(3, 11, True, num_cycles=90)
    live = {}

    def watch(cycle):
        if cycle in (30, 90):
            live.setdefault(cycle, _live_programs())

    _watched_run(monkeypatch, params, "multiversion+cache", watch, cohort_size)
    assert live[30] == live[90] <= 4, live


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="10^4-cycle cohort soak lane; set REPRO_SCALE_TESTS=1",
)
def test_ten_thousand_cycles_hold_cohort_memory_flat(monkeypatch):
    """The cohort half of the soak gate.  A driver that kept the
    programs it stepped through grew by 76 MiB over the same window."""
    cycles = 10_000
    params = oracle_params(3, 11, False, num_cycles=cycles)
    traced = {}

    def watch(cycle):
        if cycle == 2_000:
            tracemalloc.start()
        if cycle in (4_000, cycles):
            gc.collect()
            traced[cycle] = tracemalloc.get_traced_memory()[0]

    try:
        _watched_run(monkeypatch, params, "sgt+cache", watch)
    finally:
        tracemalloc.stop()
    assert traced[cycles] - traced[4_000] < 64 * 1024, traced

"""Cohort replay holds only live state: the air streams past the members.

The driver feeds each chunk's members from
:meth:`~repro.cohort.trace.KernellessServer.cycles` as it yields and
records nothing, so what a run holds does not grow with its length
(DESIGN §17, "Cohort replay").  Two nets, both watching from inside the
run through :func:`repro.cohort.engine.build_trace`, the one step the
driver takes per cycle:

* the bound: at window-aligned cycles 32 and 80 alike, the live
  ``BroadcastProgram`` objects are the driver's window of
  :data:`~repro.cohort.engine.CYCLE_WINDOW` cycles (the last of them the
  server's latest build) and at most one older program per member, the
  one it has installed -- never the run's broadcast;
* a ``slow`` lane (``REPRO_SCALE_TESTS=1``): 10^4 cycles with the run's
  traced memory flat from cycle 4 000 on.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from typing import Tuple

import pytest

from repro.broadcast.program import BroadcastProgram
from repro.cohort import engine
from repro.cohort.engine import CYCLE_WINDOW, CohortSimulation
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


def _live_programs(cycle: int) -> Tuple[int, int]:
    """How many programs are alive within the window ending at
    ``cycle``, and how many older ones."""
    gc.collect()
    cycles = [
        obj.cycle for obj in gc.get_objects() if isinstance(obj, BroadcastProgram)
    ]
    window = sum(1 for c in cycles if c > cycle - CYCLE_WINDOW)
    return window, len(cycles) - window


@pytest.mark.parametrize("cohort_size", [2, 4096])
def test_a_run_holds_the_programs_on_the_air_not_the_broadcast(
    monkeypatch, cohort_size
):
    """Probed as the driver takes the last cycle of a window (cycles
    count from 1), the first chunk holds the full window and, per
    member, the program it installed before the window -- members that
    lost a control segment may each hold a different one."""
    clients = 3
    probes = (2 * CYCLE_WINDOW, 5 * CYCLE_WINDOW)
    params = oracle_params(clients, 11, True, num_cycles=6 * CYCLE_WINDOW)
    members = min(cohort_size, clients)
    live = {}

    def watch(cycle):
        if cycle in probes:
            live.setdefault(cycle, _live_programs(cycle))

    _watched_run(monkeypatch, params, "multiversion+cache", watch, cohort_size)
    windows = {cycle: window for cycle, (window, _) in live.items()}
    assert windows == dict.fromkeys(probes, CYCLE_WINDOW), live
    assert all(older <= members for _, older in live.values()), live


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

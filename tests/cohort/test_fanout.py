"""Cohort chunks replayed in parallel processes merge to the same run.

The population splits into chunks of ``cohort_size`` clients whatever
the core count, and the chunk registries merge in chunk order, so the
whole ``snapshot()`` -- Welford means included -- is bit-identical
whether one process replays every chunk or several share them.  The
process count is forced through the one core-count helper,
:func:`repro.cohort.engine.usable_cores`; forks are seen by wrapping
:func:`os.fork`, which is what ``multiprocessing`` forks through.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.client.disconnect import RandomDisconnections
from repro.cohort import engine
from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params, registry_delta, result_delta
from repro.experiments import runner
from repro.experiments.runner import Cell
from repro.experiments.schemes import scheme_factory
from repro.faults.injector import FaultInjector
from repro.runtime import Simulation
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry
from repro.stats.names import FAULT_STORM_OUTAGES


def _disconnects(rng: random.Random) -> RandomDisconnections:
    return RandomDisconnections(0.2, mean_outage_cycles=2.0, rng=rng)


def _counting_forks(monkeypatch) -> list:
    """Wrap ``os.fork``: the list grows by one for each fork this
    process makes."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_fork():
    raise AssertionError("the run started a process")


def _run(monkeypatch, cores, params, scheme, cohort_size, disconnects=None):
    monkeypatch.setattr(engine, "usable_cores", lambda: cores)
    forks = _counting_forks(monkeypatch)
    sim = CohortSimulation(
        params,
        scheme_factory(scheme),
        disconnect_factory=disconnects,
        cohort_size=cohort_size,
    )
    result = sim.run()
    monkeypatch.undo()
    assert multiprocessing.active_children() == []
    return sim, result, len(forks)


CASES = {
    # 11 clients in chunks of 4: the last chunk is short (3).
    "sgt-storms": ("sgt+cache", 11, 4, True, None),
    "mv-storms": ("multiversion+cache", 11, 4, True, None),
    "inval-disconnects": ("inval+cache", 7, 2, False, _disconnects),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_any_process_count_gives_the_same_run(monkeypatch, case):
    scheme, clients, size, faults, disconnects = CASES[case]
    params = oracle_params(clients, seed=11, faults=faults, num_cycles=15)
    if faults:
        params = params.with_faults(storm_rate=0.3)
    runs = {
        cores: _run(monkeypatch, cores, params, scheme, size, disconnects)
        for cores in (1, 2, 3)
    }
    # P = min(chunks, cores): one process, then one and two workers.
    assert {cores: forks for cores, (_, _, forks) in runs.items()} == {
        1: 0,
        2: 1,
        3: 2,
    }
    serial, serial_result, _ = runs[1]
    for sim, result, _ in runs.values():
        assert result.metrics.snapshot() == serial_result.metrics.snapshot()
        assert list(result.metrics.snapshot()) == list(
            serial_result.metrics.snapshot()
        )
        assert sim.steps == serial.steps
        assert result_delta(serial_result, result) == []
    if faults:
        assert serial_result.metrics.get_counter(FAULT_STORM_OUTAGES).value > 0
    discrete = Simulation(
        params, scheme_factory=scheme_factory(scheme), disconnect_factory=disconnects
    ).run()
    fanned = runs[3][1]
    assert result_delta(discrete, fanned) == []
    assert registry_delta(discrete.metrics, fanned.metrics) == []


def test_one_chunk_starts_no_process(monkeypatch):
    monkeypatch.setattr(engine, "usable_cores", lambda: 4)
    monkeypatch.setattr(os, "fork", _no_fork)
    params = oracle_params(4, seed=7, faults=True, num_cycles=12)
    result = CohortSimulation(
        params, scheme_factory("inval+cache"), cohort_size=4
    ).run()
    assert result.cycles_completed == 12
    assert multiprocessing.active_children() == []


def _cohort_cell(cell: Cell) -> dict:
    """A sweep cell that replays a cohort run in chunks of two, and would
    fail if it forked: a worker of someone else's pool stays in-process."""
    os.fork = _no_fork
    return CohortSimulation(
        cell.params, scheme_factory(cell.scheme), cohort_size=2
    ).run().metrics.snapshot()


def test_a_pool_worker_starts_no_process(monkeypatch):
    params = oracle_params(6, seed=7, faults=False, num_cycles=12)
    expected = CohortSimulation(
        params, scheme_factory("inval+cache"), cohort_size=2
    ).run().metrics.snapshot()
    monkeypatch.setattr(engine, "usable_cores", lambda: 4)
    monkeypatch.setattr(runner, "run_cell", _cohort_cell)
    cells = [Cell("inval+cache", params, seed) for seed in (7, 7)]
    assert list(runner.run_cells(cells, jobs=2)) == [expected, expected]


def test_a_threaded_process_starts_no_process(monkeypatch):
    """A fork copies only the forking thread: a run beside other threads
    replays every chunk in-process."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 4)
    monkeypatch.setattr(os, "fork", _no_fork)
    params = oracle_params(6, seed=7, faults=False, num_cycles=12)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        CohortSimulation(params, scheme_factory("inval"), cohort_size=2).run()
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()


class _Boom(RuntimeError):
    pass


def _factory_failing(where: str):
    """``inval+cache``, except that the factory fails once a member is
    built in a forked worker (``where="worker"``; ``"dying worker"``
    exits without a word) or in this process after the requirements
    probe (``where="parent"``)."""
    build = scheme_factory("inval+cache")
    calls = []

    def factory():
        calls.append(1)
        if multiprocessing.parent_process() is None:
            failing = where == "parent" and len(calls) > 1
        elif where == "dying worker":
            os._exit(3)
        else:
            failing = where == "worker"
        if failing:
            raise _Boom(f"scheme factory failed in the {where}")
        return build()

    return factory


@pytest.mark.parametrize(
    "where, error",
    [("worker", _Boom), ("parent", _Boom), ("dying worker", BrokenProcessPool)],
)
def test_a_failing_chunk_raises_and_leaves_no_process(monkeypatch, where, error):
    """Raised in a worker's chunk or in this process's, the error ends
    the run; a worker that dies ends it too, instead of leaving the run
    waiting for that worker's chunk."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 2)
    params = oracle_params(6, seed=7, faults=False, num_cycles=12)
    sim = CohortSimulation(params, _factory_failing(where), cohort_size=2)
    with pytest.raises(error):
        sim.run()
    assert multiprocessing.active_children() == []


def test_a_finished_run_leaves_no_process(monkeypatch):
    monkeypatch.setattr(engine, "usable_cores", lambda: 2)
    params = oracle_params(6, seed=7, faults=False, num_cycles=12)
    CohortSimulation(params, scheme_factory("inval"), cohort_size=2).run()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("disconnects", [None, _disconnects])
@pytest.mark.parametrize("storms", [0.0, 0.3])
def test_a_chunk_starts_where_a_full_walk_is(disconnects, storms):
    """Passing over the clients before a chunk draws what building them
    would: every later stream comes out the same."""
    params = oracle_params(9, seed=23, faults=True).with_faults(
        storm_rate=storms
    )

    def walk(start):
        order = SeedOrder(23)
        order.engine_rng()
        injector = FaultInjector(params.faults, params.sim, MetricsRegistry())
        seeds = list(order.clients(9, disconnects, injector, start=start))
        return [
            (
                seed.client_id,
                seed.rng.getstate(),
                type(seed.disconnect).__name__,
                [model.rng.getstate() for model in seed.pipeline],
            )
            for seed in seeds
        ], injector._rng.getstate()

    full, full_state = walk(0)
    for start in (1, 4, 9):
        tail, state = walk(start)
        assert tail == full[start:]
        assert state == full_state

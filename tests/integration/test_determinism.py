"""Determinism regressions: same parameters + seed => identical results.

Two properties are pinned down:

* *reproducibility* -- re-running any configuration (fault-free or
  faulty) yields bit-identical metrics, so every figure and every bug
  report is replayable from its seed; and
* *differential isolation* -- the fault RNG tree is separate from the
  workload stream, so switching faults on changes what clients *receive*
  but not what the server broadcasts: abort-vs-loss curves measure the
  faults, not RNG noise.
"""

import pytest

from repro.core import InvalidationOnly, MultiversionBroadcast, MultiversionCaching
from repro.runtime import Simulation
from tests.helpers import make_faulty_sim, make_oracle_params

FACTORIES = {
    "inval+cache": lambda: InvalidationOnly(use_cache=True),
    "multiversion": lambda: MultiversionBroadcast(),
    "mv-caching": lambda: MultiversionCaching(),
}

FAULTS = dict(
    slot_loss=0.08,
    burst_rate=0.02,
    control_loss=0.05,
    truncation=0.1,
    report_delay=0.1,
    storm_rate=0.05,
)


def run_snapshot(scheme_name, seed, fault_seed=None, **fault_kwargs):
    if fault_seed is not None:
        fault_kwargs["seed"] = fault_seed
    params = make_oracle_params(seed=seed).with_faults(**fault_kwargs)
    sim = Simulation(params, scheme_factory=FACTORIES[scheme_name])
    result = sim.run()
    snapshot = result.metrics.snapshot()
    snapshot["cycles_completed"] = result.cycles_completed
    snapshot["mean_cycle_slots"] = result.mean_cycle_slots
    return snapshot


@pytest.mark.parametrize("scheme_name", sorted(FACTORIES))
def test_fault_free_runs_are_bit_identical(scheme_name):
    assert run_snapshot(scheme_name, seed=31) == run_snapshot(scheme_name, seed=31)


@pytest.mark.parametrize("scheme_name", sorted(FACTORIES))
def test_faulty_runs_are_bit_identical(scheme_name):
    first = run_snapshot(scheme_name, seed=31, **FAULTS)
    second = run_snapshot(scheme_name, seed=31, **FAULTS)
    assert first == second


def test_different_seeds_differ():
    """The reproducibility tests must not pass vacuously."""
    assert run_snapshot("inval+cache", seed=31, **FAULTS) != run_snapshot(
        "inval+cache", seed=32, **FAULTS
    )


def _server_trace(params, factory):
    sim = Simulation(params, scheme_factory=factory, keep_history=True)
    sim.run()
    return [(op.txn, op.op.name, op.item) for op in sim.engine.history.operations]


def test_workload_is_identical_with_and_without_faults():
    """The differential property: faults never perturb the server-side
    workload stream -- the full operation history matches op for op."""
    params = make_oracle_params(seed=17)
    clean = _server_trace(params, FACTORIES["inval+cache"])
    faulty = _server_trace(params.with_faults(**FAULTS), FACTORIES["inval+cache"])
    assert clean == faulty


def test_fault_seed_override_is_reproducible():
    """An explicit FaultParameters.seed pins the fault schedule
    independently of the simulation seed."""
    a = run_snapshot("inval+cache", seed=31, slot_loss=0.1, fault_seed=99)
    b = run_snapshot("inval+cache", seed=31, slot_loss=0.1, fault_seed=99)
    c = run_snapshot("inval+cache", seed=31, slot_loss=0.1, fault_seed=100)
    assert a == b
    assert a != c


def test_make_faulty_sim_uses_the_given_seed():
    """The shared helper pins both RNG trees from one seed."""
    a = make_faulty_sim(FACTORIES["multiversion"], seed=3, slot_loss=0.1).run()
    b = make_faulty_sim(FACTORIES["multiversion"], seed=3, slot_loss=0.1).run()
    assert a.metrics.snapshot() == b.metrics.snapshot()

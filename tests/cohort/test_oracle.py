"""The differential oracle as a pytest matrix: cohort == discrete, exactly.

The full matrix (``python -m repro.oracle cohort``) runs 150 cells; this
suite pins a representative slice into tier-1 so a regression in either
engine fails the ordinary test run, not just the dedicated CI job.
"""

import pytest

from repro.cohort.oracle import (
    DEFAULT_SCHEMES,
    compare_cell,
    oracle_params,
    registry_delta,
)
from repro.cohort import CohortSimulation
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation


@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("clients", [1, 4])
def test_cell_exact(scheme, faults, clients):
    report = compare_cell(scheme, clients, seed=7, faults=faults, num_cycles=20)
    assert report["mismatches"] == []


@pytest.mark.parametrize("seed", [11, 23])
def test_cell_exact_across_seeds(seed):
    """Seed sensitivity: the equality is per-seed, not on-average."""
    report = compare_cell(
        "multiversion+cache", clients=4, seed=seed, faults=True, num_cycles=20
    )
    assert report["mismatches"] == []


def test_cell_exact_wider_population():
    """N=16 crosses several cohort chunks when cohort_size is small."""
    report = compare_cell(
        "inval+cache", clients=16, seed=7, faults=True, num_cycles=20,
        cohort_size=5,
    )
    assert report["mismatches"] == []


def test_registry_delta_reports_disagreements():
    """The oracle's diff is trustworthy: perturbing one counter on an
    otherwise-identical pair of runs yields exactly one mismatch."""
    params = oracle_params(2, seed=7, faults=False, num_cycles=10)
    factory = scheme_factory("inval")
    a = Simulation(params, scheme_factory=factory).run()
    b = CohortSimulation(params, scheme_factory=factory).run()
    assert registry_delta(a.metrics, b.metrics) == []
    b.metrics.counter("client.commits").increment()
    delta = registry_delta(a.metrics, b.metrics)
    assert len(delta) == 1
    assert delta[0]["metric"] == "client.commits"
    assert delta[0]["kind"] == "counter"
    # The sides are named for their role, not for an engine: the shard
    # and live oracles hand these helpers other pairs of runs.
    # The perturbed counter exists on the candidate side only.
    assert delta[0]["reference"] is None
    assert delta[0]["candidate"] == 1
    assert set(delta[0]) == {"metric", "kind", "reference", "candidate"}

"""Engine-level properties of the cohort driver that the oracle matrix
does not exercise directly: gating, chunking invariance, and optional
collaborators (disconnection models, report schedules)."""

import math
import random
from types import SimpleNamespace

import pytest

from repro.client.disconnect import RandomDisconnections
from repro.cohort import CohortSimulation
from repro.cohort.channel import CohortChannel
from repro.cohort.engine import Member
from repro.cohort.shim import CYCLE_WAIT, CohortEnv
from repro.cohort.oracle import oracle_params, registry_delta, result_delta
from repro.core.control import ReportSchedule
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry


def test_rejects_resilience_bundles():
    params = oracle_params(2, seed=7, faults=False).with_resilience(
        crash_rate=0.01
    )
    with pytest.raises(ValueError, match="resilience"):
        CohortSimulation(params, scheme_factory("inval"))


def test_rejects_subcycle_report_schedules():
    params = oracle_params(2, seed=7, faults=False)
    with pytest.raises(ValueError, match="one report per cycle"):
        CohortSimulation(
            params,
            scheme_factory("inval"),
            report_schedule=ReportSchedule(per_cycle=4),
        )


def test_report_window_is_supported():
    """Resync windows only widen the control segment -- per_cycle stays 1,
    so the cohort engine accepts them."""
    params = oracle_params(2, seed=7, faults=True, num_cycles=15)
    factory = scheme_factory("inval+cache")
    schedule = ReportSchedule(per_cycle=1, window=2)
    discrete = Simulation(
        params, scheme_factory=factory, report_schedule=schedule
    ).run()
    cohort = CohortSimulation(
        params, scheme_factory=factory, report_schedule=schedule
    ).run()
    assert result_delta(discrete, cohort) == []
    assert registry_delta(discrete.metrics, cohort.metrics) == []


@pytest.mark.parametrize("sizes", [(1, 64), (3, 1024)])
def test_chunking_invariance(sizes):
    """Aggregates cannot depend on how the population is chunked."""
    params = oracle_params(10, seed=11, faults=True, num_cycles=15)
    runs = [
        CohortSimulation(
            params, scheme_factory("sgt+cache"), cohort_size=size
        ).run()
        for size in sizes
    ]
    assert result_delta(runs[0], runs[1]) == []
    assert registry_delta(runs[0].metrics, runs[1].metrics) == []


@pytest.mark.parametrize("cohort_size", [1, 7])
def test_rebuilt_air_counts_once(cohort_size):
    """Every chunk after the first re-derives the air from a fresh server
    on the same engine stream: the run equals a one-chunk run exactly,
    and the server's samplers count each cycle once, not once a chunk."""
    params = oracle_params(20, seed=11, faults=True, num_cycles=15)
    factory = scheme_factory("inval+cache")
    one = CohortSimulation(params, factory, cohort_size=20).run()
    chunked = CohortSimulation(params, factory, cohort_size=cohort_size).run()
    assert result_delta(one, chunked) == []
    assert registry_delta(one.metrics, chunked.metrics) == []
    for name in (
        metric_names.BROADCAST_SLOTS,
        metric_names.BROADCAST_CONTROL_SLOTS,
        metric_names.BROADCAST_OVERFLOW_SLOTS,
    ):
        assert chunked.metrics.get_sampler(name).count == 15, name


def test_disconnect_factory_matches_discrete():
    """The per-client RNG draw order covers the disconnect factory too."""
    params = oracle_params(4, seed=23, faults=False, num_cycles=15)
    factory = scheme_factory("inval+cache")

    def disconnects(rng: random.Random):
        return RandomDisconnections(0.2, mean_outage_cycles=2.0, rng=rng)

    discrete = Simulation(
        params, scheme_factory=factory, disconnect_factory=disconnects
    ).run()
    cohort = CohortSimulation(
        params, scheme_factory=factory, disconnect_factory=disconnects
    ).run()
    assert result_delta(discrete, cohort) == []
    assert registry_delta(discrete.metrics, cohort.metrics) == []


def test_result_shape():
    """Cohort results carry aggregates only: no per-client objects, but
    the same headline figures the discrete result reports."""
    params = oracle_params(3, seed=7, faults=False, num_cycles=12)
    factory = scheme_factory("versioned-cache")
    sim = CohortSimulation(params, scheme_factory=factory)
    result = sim.run()
    discrete = Simulation(params, scheme_factory=factory).run()
    assert result.clients == []
    assert sim.steps > 0
    assert result.cycles_completed == discrete.cycles_completed
    assert result.mean_cycle_slots == discrete.mean_cycle_slots
    assert result.scheme_label == discrete.scheme_label


def test_cohort_size_floor():
    sim = CohortSimulation(
        oracle_params(2, seed=7, faults=False),
        scheme_factory("inval"),
        cohort_size=0,
    )
    assert sim.cohort_size == 1


def _scripted_member(yields):
    """A member whose client generator yields ``yields`` in turn."""
    env = CohortEnv()
    channel = CohortChannel(env, MetricsRegistry())
    return Member(SimpleNamespace(process=iter(yields)), channel, env)


@pytest.mark.parametrize("instant", [0.0, 3.0, 7, 2.5, math.inf])
def test_a_yielded_instant_never_parks(instant):
    """A wake is its instant: a float from ``CohortEnv.timeout`` (an
    integer-valued one, zero or ``inf`` included) wakes the member
    there, and nothing the driver does treats it as a park."""
    member = _scripted_member([instant, CYCLE_WAIT])
    member.advance()
    assert member.wake == instant and member.wake is not None
    member.run_until(instant)  # strictly before: does not fire
    assert member.wake == instant and member.steps == 1


@pytest.mark.parametrize("token", [CYCLE_WAIT, None, object(), "3.0", True])
def test_only_a_non_instant_yield_parks(token):
    member = _scripted_member([token])
    member.advance()
    assert member.wake is None


def test_timeout_yields_the_kernels_float_instant():
    env = CohortEnv()
    env.now = 1.0
    wake = env.timeout(2)
    assert type(wake) is float and wake == 3.0
    member = _scripted_member([env.timeout(0.5), env.timeout(1), CYCLE_WAIT])
    member.advance()
    member.run_until(3.0)  # fires 1.5, then 2.0, then parks
    assert (member.env.now, member.wake, member.steps) == (2.0, None, 3)

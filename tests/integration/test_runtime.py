"""Tests for the Simulation wiring and SimulationResult surface."""

import math

import pytest

from repro.core import (
    InvalidationOnly,
    MultiversionBroadcast,
    SerializationGraphTesting,
)
from repro.core.control import ReportSchedule
from repro.runtime import Simulation, SimulationResult


def test_result_surface(small_params):
    result = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
    ).run()
    assert isinstance(result, SimulationResult)
    assert result.scheme_label == "invalidation-only+cache"
    assert result.cycles_completed == small_params.sim.num_cycles
    assert result.acceptance_rate == pytest.approx(1.0 - result.abort_rate)
    assert result.committed_attempts <= result.total_attempts
    assert result.mean_cycle_slots >= small_params.server.data_buckets


def test_empty_metrics_are_nan_or_zero(small_params):
    # Warmup beyond every measured attempt: nothing recorded.
    params = small_params.with_sim(warmup_cycles=39, num_cycles=40)
    result = Simulation(params, scheme_factory=lambda: InvalidationOnly()).run()
    assert result.abort_rate == 0.0
    assert math.isnan(result.mean_latency_cycles)
    assert math.isnan(result.mean_span)
    assert result.abort_count("invalidated") >= 0


def test_each_client_gets_its_own_scheme_instance(small_params):
    params = small_params.with_sim(num_clients=3)
    sim = Simulation(params, scheme_factory=lambda: SerializationGraphTesting())
    assert len(sim.schemes) == 3
    assert len({id(s) for s in sim.schemes}) == 3
    assert len(sim.clients) == 3


def test_version_store_only_when_needed(small_params):
    plain = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
    assert plain.version_store is None
    multi = Simulation(
        small_params, scheme_factory=lambda: MultiversionBroadcast()
    )
    assert multi.version_store is not None
    assert multi.version_store.retention == small_params.server.retention


def test_report_schedule_window_reaches_builder(small_params):
    sim = Simulation(
        small_params,
        scheme_factory=lambda: InvalidationOnly(use_cache=True),
        report_schedule=ReportSchedule(window=3),
    )
    sim.run()
    assert sim.builder.requirements.report_window == 3
    # The last program actually carried windowed reports.
    assert len(sim.channel.program.control.window) == 3


def test_interval_schedule_runs_to_completion(small_params):
    result = Simulation(
        small_params,
        scheme_factory=lambda: InvalidationOnly(),
        report_schedule=ReportSchedule(per_cycle=3),
    ).run()
    assert result.cycles_completed == small_params.sim.num_cycles


def test_mixed_metrics_shared_across_clients(small_params):
    params = small_params.with_sim(num_clients=4)
    sim = Simulation(
        params,
        scheme_factory=lambda: InvalidationOnly(use_cache=True),
        keep_history=True,
    )
    result = sim.run()
    per_client = sum(
        1
        for client in sim.clients
        for txn in client.completed
        if txn.start_cycle > params.sim.warmup_cycles
    )
    # All clients' measured attempts land in the one registry (allow the
    # off-by-a-few from the query-level warmup flag).
    assert result.total_attempts == pytest.approx(per_client, abs=8)


def test_server_graph_pruned_during_run(small_params):
    params = small_params.with_sim(num_cycles=80, warmup_cycles=4)
    sim = Simulation(
        params,
        scheme_factory=lambda: SerializationGraphTesting(),
        keep_history=True,
    )
    sim.run()
    # 80 cycles x 5 txns = 400 commits; the retained graph stays bounded.
    assert len(sim.engine.graph) < 400

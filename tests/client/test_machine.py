"""Tests for the client machine: retries, metrics, give-up behaviour."""

import pytest

from repro.core import InvalidationOnly, MultiversionBroadcast
from repro.core.transaction import TransactionStatus
from repro.runtime import Simulation


def test_retries_bounded_by_max_attempts(hot_params):
    params = hot_params.with_client(max_attempts=3)
    sim = Simulation(params, scheme_factory=lambda: InvalidationOnly())
    result = sim.run()
    attempts = result.metrics.get_sampler("query.attempts")
    assert attempts is not None
    assert attempts.maximum <= 3


def test_query_completion_tracked(hot_params):
    sim = Simulation(
        hot_params.with_client(max_attempts=2),
        scheme_factory=lambda: InvalidationOnly(),
    )
    result = sim.run()
    completed = result.metrics.get_ratio("query.completed")
    assert completed is not None
    assert completed.total > 0
    # The hot workload must leave some queries unfinished at 2 attempts.
    assert completed.ratio < 1.0


def test_retry_repeats_the_same_item_set(small_params):
    sim = Simulation(
        small_params,
        scheme_factory=lambda: InvalidationOnly(),
        keep_history=True,
    )
    sim.run()
    client = sim.clients[0]
    by_query = {}
    for txn in client.completed:
        # txn ids look like c0.q3.a7
        qid = txn.txn_id.split(".")[1]
        by_query.setdefault(qid, []).append(tuple(txn.items))
    retried = {q: sets for q, sets in by_query.items() if len(sets) > 1}
    assert retried, "expected at least one retried query"
    for sets in retried.values():
        assert len(set(sets)) == 1


def test_committed_attempt_metrics_present(small_params):
    result = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
    ).run()
    for name in ("txn.latency_cycles", "txn.latency_slots", "txn.span"):
        sampler = result.metrics.get_sampler(name)
        assert sampler is not None and sampler.count > 0, name
    assert result.metrics.get_sampler("txn.latency_slots").minimum >= 0


def test_abort_reason_counters_sum_to_aborts(small_params):
    result = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly()
    ).run()
    ratio = result.metrics.get_ratio("attempt.committed")
    aborts = ratio.total - ratio.hits
    by_reason = sum(
        counter.value
        for name, counter in result.metrics.counters()
        if name.startswith("abort.")
    )
    assert by_reason == aborts


def test_span_never_exceeds_latency(small_params):
    sim = Simulation(
        small_params,
        scheme_factory=lambda: MultiversionBroadcast(),
        keep_history=True,
    )
    sim.run()
    for client in sim.clients:
        for txn in client.completed:
            if txn.status is TransactionStatus.COMMITTED:
                assert txn.span <= txn.latency_cycles


def test_cache_disabled_when_scheme_declines(small_params):
    sim = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly(use_cache=False)
    )
    assert sim.clients[0].cache is None


def test_cache_partition_follows_requirements(small_params):
    from repro.core import MultiversionCaching

    sim = Simulation(small_params, scheme_factory=lambda: MultiversionCaching())
    cache = sim.clients[0].cache
    assert cache is not None
    assert cache.multiversion
    expected_old = int(
        small_params.client.cache_size * small_params.client.old_version_fraction
    )
    assert cache.old_capacity == expected_old

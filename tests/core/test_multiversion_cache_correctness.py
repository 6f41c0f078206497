"""Theorem 5: the multiversion cache method is correct -- a query
invalidated first at cycle c_u commits a readset equal to DS^{c_u - 1}."""

import pytest

from repro.core.multiversion_cache import MultiversionCaching
from repro.core.transaction import AbortReason
from repro.core.versioned_cache import InvalidationWithVersionedCache
from tests.helpers import (
    aborted_transactions,
    committed_transactions,
    readset_matches_snapshot,
)


def test_theorem5_marked_commits_match_deadline_snapshot(run_sim, hot_params):
    sim, _ = run_sim(hot_params, lambda: MultiversionCaching())
    committed = committed_transactions(sim.clients)
    assert committed
    marked = [txn for txn in committed if txn.deadline is not None]
    assert marked, "expected some queries to survive an invalidation"
    for txn in marked:
        assert readset_matches_snapshot(txn, sim.database, txn.deadline - 1), (
            f"{txn.txn_id} readset does not match DS^{txn.deadline - 1}"
        )


def test_unmarked_commits_are_current(run_sim, small_params):
    sim, _ = run_sim(small_params, lambda: MultiversionCaching())
    unmarked = [
        txn
        for txn in committed_transactions(sim.clients)
        if txn.deadline is None
    ]
    assert unmarked
    for txn in unmarked:
        last = max(r.read_cycle for r in txn.reads.values())
        assert readset_matches_snapshot(txn, sim.database, last)


def test_beats_versioned_cache_via_old_versions(run_sim, hot_params):
    """The old-version partition lets MC serve reads the plain versioned
    cache must abort on, so it can only do better (or equal)."""
    _, versioned = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    _, mc = run_sim(hot_params, lambda: MultiversionCaching())
    assert mc.abort_rate <= versioned.abort_rate + 0.05


def test_aborts_only_on_stale_cache(run_sim, hot_params):
    sim, _ = run_sim(hot_params, lambda: MultiversionCaching())
    for txn in aborted_transactions(sim.clients):
        assert txn.abort_reason in (
            AbortReason.STALE_CACHE,
            AbortReason.INVALIDATED,
        )


def test_broadcast_fallback_requires_old_enough_version(run_sim, hot_params):
    """Reads satisfied off the air after marking must carry a version
    older than the deadline (checkable because versions are broadcast)."""
    sim, _ = run_sim(hot_params, lambda: MultiversionCaching())
    for txn in committed_transactions(sim.clients):
        if txn.deadline is None:
            continue
        for result in txn.reads.values():
            if result.read_cycle >= txn.deadline:
                assert result.version <= txn.deadline - 1


def test_retention_is_client_side_property(run_sim, hot_params):
    """MC keeps old versions in the cache, not on the air: the broadcast
    carries no overflow buckets."""
    sim, result = run_sim(hot_params, lambda: MultiversionCaching())
    overflow = result.metrics.get_sampler("broadcast.overflow_slots")
    assert overflow is not None
    assert overflow.maximum == 0.0


def test_larger_old_partition_helps(run_sim, hot_params):
    _, small = run_sim(
        hot_params.with_client(old_version_fraction=0.05),
        lambda: MultiversionCaching(),
    )
    _, large = run_sim(
        hot_params.with_client(cache_size=40, old_version_fraction=0.4),
        lambda: MultiversionCaching(),
    )
    assert large.abort_rate <= small.abort_rate + 0.1


def test_scheme_requires_multiversion_cache():
    from repro.config import ModelParameters
    from repro.runtime import Simulation

    params = (
        ModelParameters()
        .with_client(old_version_fraction=0.0)
        .with_sim(num_cycles=5, warmup_cycles=1)
    )
    with pytest.raises(RuntimeError, match="old-version partition"):
        Simulation(params, scheme_factory=lambda: MultiversionCaching())

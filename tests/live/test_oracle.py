"""Budgeted sim-vs-live oracle cells as regression tests.

The full matrix lives in ``python -m repro.oracle live`` (the CI
``oracle (live)`` job); these cells keep the core guarantee under the
tier-1 suite at a small fixed cost: a loopback broadcast through the
real codec and real sockets is *registry-identical* to its DES twin,
and the chaos lane keeps its liveness/serializability contracts.
"""

import asyncio

import pytest

from repro.cohort.oracle import oracle_params, registry_delta
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.oracle import check_chaos_cell, compare_exact_cell
from repro.live.server import LiveBroadcastServer
from repro.runtime import Simulation
from repro.stats.metrics import MetricsRegistry


@pytest.mark.parametrize(
    "scheme,faults",
    [
        ("inval+cache", False),
        ("multiversion+cache", False),
        ("sgt+cache", False),
        ("inval+cache", True),
    ],
)
def test_exact_lane_matches_discrete_twin(scheme, faults):
    report = compare_exact_cell(scheme, seed=7, faults=faults, clients=2, num_cycles=16)
    assert report["mismatches"] == []
    assert report["total_attempts"] > 0


def test_chaos_lane_keeps_contracts():
    report = check_chaos_cell("multiversion+cache", seed=11, clients=2, num_cycles=16)
    assert report["mismatches"] == []
    assert report["total_attempts"] > 0
    assert report["cycles_heard"] > 0


def test_listeners_with_no_rng_are_their_des_twins_clients():
    """``repro listen --client-id k`` derives client k's stream, not
    client 0's: two default listeners merge to the 2-client twin."""
    params = oracle_params(2, seed=7, faults=False, num_cycles=16)
    factory = scheme_factory("inval+cache")

    async def scenario():
        server = LiveBroadcastServer(
            params, factory().requirements(), scheme_label="inval+cache"
        )
        await server.start()
        tasks = [
            asyncio.ensure_future(
                LiveClient(server.host, server.port, client_id=k).run()
            )
            for k in (0, 1)
        ]
        try:
            await server.wait_for_clients(2, timeout=10.0)
            await server.run()
            results = await asyncio.wait_for(asyncio.gather(*tasks), 60.0)
        finally:
            await server.stop()
        return server, results

    server, results = asyncio.run(scenario())
    merged = MetricsRegistry()
    merged.merge(server.metrics)
    for result in results:
        merged.merge(result.metrics)
    twin = Simulation(params, scheme_factory=factory).run()
    assert twin.total_attempts > 0
    assert registry_delta(twin.metrics, merged) == []

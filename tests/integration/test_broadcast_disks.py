"""The broadcast-disk extension (Section 7): skewed schedules work with
the consistency schemes and cut latency for hot-item queries."""

import pytest

from repro.core import InvalidationOnly, MultiversionBroadcast
from repro.runtime import Simulation
from tests.helpers import committed_transactions, snapshot_cycle_of
from tests.integration.broadcast_disks import BroadcastDiskSchedule, DiskSpec


def classic_schedule(size):
    return BroadcastDiskSchedule.classic(size, hot_fraction=0.1)


def test_simulation_runs_on_disk_schedule(small_params):
    schedule = classic_schedule(small_params.server.broadcast_size)
    sim = Simulation(
        small_params,
        scheme_factory=lambda: InvalidationOnly(use_cache=True),
        schedule=schedule,
    )
    result = sim.run()
    assert result.total_attempts > 0
    # The skewed schedule repeats hot items, so the cycle is longer.
    flat = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
    ).run()
    assert result.mean_cycle_slots > flat.mean_cycle_slots


def test_correctness_holds_on_disk_schedule(small_params):
    schedule = classic_schedule(small_params.server.broadcast_size)
    sim = Simulation(
        small_params,
        scheme_factory=lambda: InvalidationOnly(use_cache=True),
        schedule=schedule,
        keep_history=True,
    )
    sim.run()
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert snapshot_cycle_of(txn, sim.database) is not None


def test_multiversion_on_disk_schedule(small_params):
    schedule = classic_schedule(small_params.server.broadcast_size)
    sim = Simulation(
        small_params,
        scheme_factory=lambda: MultiversionBroadcast(),
        schedule=schedule,
        keep_history=True,
    )
    sim.run()
    committed = committed_transactions(sim.clients)
    assert committed
    for txn in committed:
        assert snapshot_cycle_of(txn, sim.database) == txn.first_read_cycle or (
            snapshot_cycle_of(txn, sim.database) is not None
        )


def test_hot_queries_faster_on_disk_schedule(small_params):
    """Queries over the fast-disk prefix wait less per read than on a
    flat schedule of the same total length would imply."""
    size = small_params.server.broadcast_size
    # All client reads land on the fast disk (hottest 10 items).
    params = small_params.with_client(read_range=10, ops_per_query=3)
    disk = Simulation(
        params,
        scheme_factory=lambda: InvalidationOnly(use_cache=False),
        schedule=classic_schedule(size),
    ).run()
    flat = Simulation(
        params, scheme_factory=lambda: InvalidationOnly(use_cache=False)
    ).run()
    # Mean wait per read on the fast disk ~ (cycle / 4) / 2; flat ~ cycle/2.
    # Compare latency normalized by cycle length.
    disk_norm = disk.metrics.get_sampler("txn.latency_slots").mean / disk.mean_cycle_slots
    flat_norm = flat.metrics.get_sampler("txn.latency_slots").mean / flat.mean_cycle_slots
    assert disk_norm < flat_norm

"""End-to-end simulation sanity for every scheme."""

import pytest

from repro.core import (
    InvalidationOnly,
    InvalidationWithVersionedCache,
    MultiversionBroadcast,
    MultiversionCaching,
    NoConsistency,
    SerializationGraphTesting,
)
from repro.runtime import Simulation
from tests.helpers import committed_transactions

ALL_FACTORIES = {
    "inval": lambda: InvalidationOnly(),
    "inval+cache": lambda: InvalidationOnly(use_cache=True),
    "versioned-cache": lambda: InvalidationWithVersionedCache(),
    "multiversion": lambda: MultiversionBroadcast(),
    "multiversion/clustered": lambda: MultiversionBroadcast(organization="clustered"),
    "multiversion+cache": lambda: MultiversionBroadcast(use_cache=True),
    "sgt": lambda: SerializationGraphTesting(),
    "sgt+cache": lambda: SerializationGraphTesting(use_cache=True),
    "mv-caching": lambda: MultiversionCaching(),
}


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_every_scheme_completes_a_run(small_params, name):
    sim = Simulation(small_params, scheme_factory=ALL_FACTORIES[name])
    result = sim.run()
    assert result.cycles_completed == small_params.sim.num_cycles
    assert result.total_attempts > 0
    assert 0.0 <= result.abort_rate <= 1.0


@pytest.mark.parametrize(
    "name", ["inval+cache", "versioned-cache", "multiversion", "sgt", "mv-caching"]
)
def test_every_scheme_commits_something(small_params, name):
    sim = Simulation(
        small_params, scheme_factory=ALL_FACTORIES[name], keep_history=True
    )
    sim.run()
    assert committed_transactions(sim.clients)


def test_run_is_deterministic_for_fixed_seed(small_params):
    results = []
    for _ in range(2):
        sim = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
        result = sim.run()
        results.append(
            (result.total_attempts, result.committed_attempts, result.mean_cycle_slots)
        )
    assert results[0] == results[1]


def test_different_seeds_differ(small_params):
    a = Simulation(
        small_params.with_sim(seed=1), scheme_factory=lambda: InvalidationOnly()
    ).run()
    b = Simulation(
        small_params.with_sim(seed=2), scheme_factory=lambda: InvalidationOnly()
    ).run()
    # Weak check: the exact attempt pattern should not coincide.
    assert (a.total_attempts, a.committed_attempts) != (
        b.total_attempts,
        b.committed_attempts,
    ) or a.metrics.snapshot() != b.metrics.snapshot()


def test_metrics_surface(small_params):
    result = Simulation(
        small_params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
    ).run()
    snapshot = result.metrics.snapshot()
    assert "attempt.committed.ratio" in snapshot
    assert "broadcast.slots.mean" in snapshot
    assert result.mean_cycle_slots > small_params.server.data_buckets


def test_multiversion_broadcast_is_longer(small_params):
    plain = Simulation(small_params, scheme_factory=lambda: InvalidationOnly()).run()
    multi = Simulation(
        small_params, scheme_factory=lambda: MultiversionBroadcast()
    ).run()
    assert multi.mean_cycle_slots > plain.mean_cycle_slots


def test_unsafe_baseline_commits_inconsistent_readsets(hot_params):
    """The paper's motivation, measured: without consistency control a
    substantial share of committed queries match no database snapshot."""
    from tests.helpers import snapshot_cycle_of

    sim = Simulation(
        hot_params.with_sim(num_clients=4),
        scheme_factory=lambda: NoConsistency(),
        keep_history=True,
    )
    sim.run()
    committed = committed_transactions(sim.clients)
    assert committed
    violations = sum(
        1 for txn in committed if snapshot_cycle_of(txn, sim.database) is None
    )
    assert violations > 0
    # The unsafe baseline never aborts at all.
    assert len(committed) == sum(len(c.completed) for c in sim.clients)


def test_invalid_parameters_rejected():
    from repro.config import ModelParameters

    with pytest.raises(ValueError):
        Simulation(
            ModelParameters().with_client(read_range=5000),
            scheme_factory=lambda: InvalidationOnly(),
        )


def test_warmup_excludes_early_attempts(small_params):
    late_warmup = small_params.with_sim(warmup_cycles=30)
    early_warmup = small_params.with_sim(warmup_cycles=2)
    late = Simulation(late_warmup, scheme_factory=lambda: InvalidationOnly()).run()
    early = Simulation(early_warmup, scheme_factory=lambda: InvalidationOnly()).run()
    assert late.total_attempts <= early.total_attempts

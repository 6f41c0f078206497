"""The global correctness property, checked for every scheme at once:

    every committed read-only transaction's readset is a subset of a
    consistent database state (equivalently, serializable against the
    full server history).

This is the paper's correctness criterion (Section 2.2) and the union of
Theorems 1-5.  A property-based harness varies the workload knobs and
seeds; the unsafe baseline is checked to *violate* the property, proving
the oracle has teeth.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    InvalidationOnly,
    InvalidationWithVersionedCache,
    MultiversionBroadcast,
    MultiversionCaching,
    NoConsistency,
    SerializationGraphTesting,
)
from repro.runtime import Simulation
from tests.helpers import (
    committed_transactions,
    is_serializable_with_server,
    make_oracle_params,
    snapshot_cycle_of,
)

FACTORIES = {
    "inval": lambda: InvalidationOnly(),
    "inval+cache": lambda: InvalidationOnly(use_cache=True),
    "versioned-cache": lambda: InvalidationWithVersionedCache(),
    "multiversion": lambda: MultiversionBroadcast(),
    "multiversion+cache": lambda: MultiversionBroadcast(use_cache=True),
    "sgt": lambda: SerializationGraphTesting(),
    "sgt+cache": lambda: SerializationGraphTesting(use_cache=True),
    "mv-caching": lambda: MultiversionCaching(),
}


#: One definition for the whole suite now lives in tests/helpers.py.
make_params = make_oracle_params


def assert_all_commits_consistent(sim):
    committed = committed_transactions(sim.clients)
    for txn in committed:
        ok = snapshot_cycle_of(txn, sim.database) is not None
        if not ok:
            # SGT may legitimately commit off-snapshot readsets; they must
            # still be serializable.
            ok = is_serializable_with_server(
                txn, sim.database, sim.engine.history
            )
        assert ok, f"{txn.txn_id} committed an inconsistent readset"
    return committed


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_all_schemes_commit_only_consistent_readsets(name):
    sim = Simulation(
        make_params(seed=13, offset=0, updates=8, ops=5),
        scheme_factory=FACTORIES[name],
        keep_history=True,
    )
    sim.run()
    assert_all_commits_consistent(sim)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.integers(min_value=0, max_value=25),
    updates=st.integers(min_value=3, max_value=15),
    ops=st.integers(min_value=2, max_value=8),
    scheme=st.sampled_from(sorted(FACTORIES)),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_consistency_across_workloads(seed, offset, updates, ops, scheme):
    sim = Simulation(
        make_params(seed=seed, offset=offset, updates=updates, ops=ops),
        scheme_factory=FACTORIES[scheme],
        keep_history=True,
    )
    sim.run()
    assert_all_commits_consistent(sim)


def test_oracle_has_teeth():
    """The unsafe baseline must violate the property -- otherwise the
    oracle proves nothing."""
    sim = Simulation(
        make_params(seed=13, offset=0, updates=12, ops=6),
        scheme_factory=lambda: NoConsistency(),
        keep_history=True,
    )
    sim.run()
    committed = committed_transactions(sim.clients)
    assert committed
    violations = [
        txn
        for txn in committed
        if snapshot_cycle_of(txn, sim.database) is None
        and not is_serializable_with_server(txn, sim.database, sim.engine.history)
    ]
    assert violations, "expected the unsafe baseline to misbehave"

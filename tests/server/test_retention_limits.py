"""Deep retention on the one item store.

``ColumnarVersionStore`` reads the has-old pointer of Figure 2(b) off its
retained-version lists, so no retention is too deep for it and no
per-item pile-up of old versions overflows it: every retention, on the
single channel and shard by shard, runs on the same store.
"""

import pytest

from repro.cohort.oracle import oracle_params
from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.experiments.schemes import scheme_factory
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database, Version
from repro.server.substrate import build_substrate
from repro.shard import ShardedSimulation, sharded_violations


@pytest.mark.parametrize("retention", [0, 16, 255, 256, 1000])
def test_every_retention_builds_the_columnar_store(retention):
    substrate = build_substrate(
        ServerParameters(broadcast_size=10, retention=retention),
        BroadcastRequirements(needs_old_versions=True),
        rng=None,
    )
    assert type(substrate.item_state) is ColumnarVersionStore
    assert substrate.version_store is substrate.item_state
    assert substrate.item_state.retention == retention


def test_one_item_keeps_a_thousand_versions_on_air():
    """One item superseded every cycle of a 1000-cycle window: every
    version stays on the air and the has-old bit stays set until the
    window passes, then eviction clears both."""
    database = Database(4)
    store = ColumnarVersionStore(database, retention=1000)
    for n in range(1000):
        store.record_supersedure(
            Version(item=1, value=n, cycle=n + 1, writer=None),
            superseded_at=n + 2,
        )
        assert store.evict_expired(n + 2) == 0
    assert len(store.on_air(1)) == store.total_retained == 1000
    assert len(store.overflow_records()) == 1000
    assert store.has_old(1)
    assert store.item_record(1, 1001, needs_old=True).has_old_versions
    assert not store.has_old(2)

    assert store.evict_expired(1001) == 0
    assert store.evict_expired(1002) == 1  # superseded at 2 expires at 1002
    assert len(store.on_air(1)) == 999 and store.has_old(1)
    assert store.evict_expired(2001) == 999
    assert store.on_air(1) == [] and store.total_retained == 0
    assert store.overflow_records() == ()
    assert not store.has_old(1)
    assert not store.item_record(1, 2001, needs_old=True).has_old_versions


def test_deep_shard_retention_runs_on_two_columnar_shards():
    params = oracle_params(2, seed=5, faults=False, num_cycles=30)
    sim = ShardedSimulation(
        params,
        scheme_factory("multiversion+cache"),
        num_shards=2,
        shard_retention=[8, 300],
        keep_history=True,
    )
    assert [type(shard.version_store) for shard in sim.shards] == [
        ColumnarVersionStore,
        ColumnarVersionStore,
    ]
    assert [shard.version_store.retention for shard in sim.shards] == [8, 300]
    result = sim.run()
    assert result.committed_attempts > 0
    assert sharded_violations(sim) == []

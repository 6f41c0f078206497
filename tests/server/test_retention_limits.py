"""Store selection and the retention depth that decides it.

``ColumnarVersionStore`` keeps the has-old pointer column as a
``bytearray`` of retained-version counts, so it physically cannot track
more than 255 retained versions per item.  Nobody picks a store:
``make_item_state`` builds the columnar one while the retention fits
that column and the dict-backed ``VersionStore`` beyond, so a deep
retention runs instead of being refused -- on the single channel and
shard by shard.
"""

import pytest

from repro.cohort.oracle import oracle_params
from repro.experiments.schemes import scheme_factory
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database, Version
from repro.server.itemstate import make_item_state
from repro.server.versions import VersionStore
from repro.shard import ShardedSimulation, sharded_violations


@pytest.mark.parametrize(
    "retention, store_type",
    [
        (0, ColumnarVersionStore),  # no old versions needed
        (16, ColumnarVersionStore),
        (255, ColumnarVersionStore),
        (256, VersionStore),
        (1000, VersionStore),
    ],
)
def test_the_retention_picks_the_store(retention, store_type):
    store = make_item_state(Database(10), retention, items_per_bucket=5)
    assert type(store) is store_type
    assert store.columnar is (store_type is ColumnarVersionStore)
    assert store.retention == retention


def test_columnar_rejects_retention_beyond_the_byte_column():
    database = Database(10)
    with pytest.raises(ValueError, match="255-version has-old column"):
        ColumnarVersionStore(database, retention=256)
    # The message names the rule that would have avoided it.
    with pytest.raises(ValueError, match="make_item_state builds the dict"):
        ColumnarVersionStore(database, retention=1000)


def test_columnar_accepts_the_255_boundary():
    database = Database(10)
    store = ColumnarVersionStore(database, retention=255)
    assert store.retention == 255


def test_dict_backed_store_still_accepts_deep_retention():
    database = Database(10)
    store = VersionStore(database, retention=1000)
    assert store.retention == 1000


def test_runtime_overflow_guard_survives_for_per_item_depth():
    """The mid-run guard stays: 255 *versions of one item* can pile up
    even under a legal retention when one item is superseded repeatedly
    within the window."""
    database = Database(4)
    store = ColumnarVersionStore(database, retention=255)
    for n in range(255):
        store.record_supersedure(
            Version(item=1, value=n, cycle=n + 1, writer=None), superseded_at=n + 1
        )
    with pytest.raises(ValueError, match="more than 255 retained versions"):
        store.record_supersedure(
            Version(item=1, value=255, cycle=256, writer=None), superseded_at=256
        )


def test_deep_shard_retention_mixes_the_stores_and_stays_serializable():
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
        VersionStore,
    ]
    result = sim.run()
    assert result.committed_attempts > 0
    assert sharded_violations(sim) == []

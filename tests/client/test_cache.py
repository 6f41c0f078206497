"""Tests for the client cache: LRU, invalidation + autoprefetch, validity
intervals, and the multiversion partition."""

import pytest

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.client.cache import CacheEntry, ClientCache
from repro.core.control import ControlInfo, InvalidationReport
from repro.sim import Environment


def make_program(cycle, values, updated=()):
    """One bucket per item, item i at slot i (after 1 control slot)."""
    buckets = [
        Bucket(index=i, records=(ItemRecord(item, v, ver),))
        for i, (item, (v, ver)) in enumerate(sorted(values.items()))
    ]
    control = ControlInfo(
        cycle=cycle,
        invalidation=InvalidationReport(
            cycle=cycle, updated_items=frozenset(updated)
        ),
    )
    return BroadcastProgram(
        cycle=cycle, control=control, data_buckets=buckets, control_slots=1
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def channel(env):
    return BroadcastChannel(env)


def record(item, value, version):
    return ItemRecord(item=item, value=value, version=version)


class TestConstruction:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ClientCache(0)
        with pytest.raises(ValueError):
            ClientCache(10, old_capacity=10)
        with pytest.raises(ValueError):
            ClientCache(10, old_capacity=-1)

    def test_multiversion_flag(self):
        assert not ClientCache(10).multiversion
        assert ClientCache(10, old_capacity=3).multiversion
        assert ClientCache(10, old_capacity=3).current_capacity == 7


class TestBasicLookups:
    def test_insert_and_get_current(self):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 2), now=3.0)
        entry = cache.get_current(1, now=4.0)
        assert entry is not None
        assert entry.value == 100
        assert entry.version == 2
        assert entry.is_current

    def test_miss_counts(self):
        cache = ClientCache(5)
        assert cache.get_current(1, now=0.0) is None
        cache.insert_current(record(1, 1, 0), now=0.0)
        cache.get_current(1, now=1.0)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ClientCache(2)
        cache.insert_current(record(1, 1, 0), now=0.0)
        cache.insert_current(record(2, 2, 0), now=1.0)
        cache.get_current(1, now=2.0)  # touch 1: now 2 is LRU
        cache.insert_current(record(3, 3, 0), now=3.0)
        assert cache.get_current(1, now=4.0) is not None
        assert cache.get_current(2, now=4.0) is None
        assert cache.get_current(3, now=4.0) is not None

    def test_get_covering_uses_interval(self):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 3), now=0.0)
        # Current entry: valid from 3 onward.
        assert cache.get_covering(1, 3, now=1.0) is not None
        assert cache.get_covering(1, 7, now=1.0) is not None
        assert cache.get_covering(1, 2, now=1.0) is None


class TestInvalidationAndAutoprefetch:
    def test_report_closes_interval_and_keeps_old_value(self, env, channel):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 0), now=0.0)
        # Cycle 5 report: item 1 updated during cycle 4.
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)

        # Not current anymore...
        assert cache.get_current(1, now=0.0) is None
        # ...but the stale value still answers old-enough queries
        # (the paper's "marked for autoprefetching" state).
        entry = cache.get_covering(1, 4, now=0.0)
        assert entry is not None
        assert entry.value == 100
        assert entry.valid_to == 4

    def test_autoprefetch_lands_at_delivery_time(self, env, channel):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 0), now=0.0)
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)

        # Item 1 rides in data slot 1, delivered at 1.5.
        assert cache.get_current(1, now=1.0) is None
        entry = cache.get_current(1, now=2.0)
        assert entry is not None
        assert entry.value == 101
        assert entry.version == 5

    def test_autoprefetch_replaces_old_value_in_plain_cache(self, env, channel):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 0), now=0.0)
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)
        # After the prefetch lands, the old value is gone (plain cache).
        cache.get_current(1, now=3.0)
        assert cache.get_covering(1, 4, now=3.0) is None

    def test_uncached_updates_ignored(self, env, channel):
        cache = ClientCache(5)
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)
        assert len(cache) == 0
        assert cache.get_current(1, now=9.0) is None

    def test_demand_insert_overrides_pending(self, env, channel):
        cache = ClientCache(5)
        cache.insert_current(record(1, 100, 0), now=0.0)
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)
        # The client read the item off the air itself before the pending
        # refresh was consulted again.
        cache.insert_current(record(1, 101, 5), now=1.5)
        entry = cache.get_current(1, now=1.6)
        assert entry.value == 101


class TestMultiversionPartition:
    def test_demotion_keeps_old_version(self, env, channel):
        cache = ClientCache(6, old_capacity=2)
        cache.insert_current(record(1, 100, 0), now=0.0)
        program = make_program(5, {1: (101, 5)}, updated=[1])
        channel.begin_cycle(program)
        cache.handle_cycle_start(program, channel)

        # Old version moved to the old partition...
        old = cache.get_covering(1, 4, now=0.0)
        assert old is not None and old.value == 100
        # ...and after the autoprefetch both versions are available.
        current = cache.get_current(1, now=2.0)
        assert current.value == 101
        old = cache.get_covering(1, 4, now=2.0)
        assert old is not None and old.value == 100

    def test_old_partition_capacity_evicts_lru(self, env, channel):
        cache = ClientCache(6, old_capacity=2)
        for cycle in (5, 6, 7):
            cache.insert_current(record(1, 100 + cycle, cycle - 1), now=0.0)
            program = make_program(cycle, {1: (101 + cycle, cycle)}, updated=[1])
            channel.begin_cycle(program)
            cache.handle_cycle_start(program, channel)
        # Only 2 old versions fit; the earliest was evicted.
        covering = [cache.get_covering(1, c, now=0.0) for c in (4, 5, 6)]
        assert covering[0] is None
        assert covering[1] is not None
        assert covering[2] is not None

    def test_insert_old_directly(self):
        cache = ClientCache(6, old_capacity=2)
        cache.insert_old(record(1, 99, 2), valid_to=4, now=0.0)
        entry = cache.get_covering(1, 3, now=0.0)
        assert entry is not None and entry.value == 99
        assert cache.get_covering(1, 5, now=0.0) is None

    def test_insert_old_noop_on_plain_cache(self):
        cache = ClientCache(5)
        cache.insert_old(record(1, 99, 2), valid_to=4, now=0.0)
        assert len(cache) == 0


class TestCacheEntry:
    def test_covers_semantics(self):
        entry = CacheEntry(record(1, 0, 3), valid_to=6, available_at=0.0)
        assert not entry.covers(2)
        assert entry.covers(3) and entry.covers(6)
        assert not entry.covers(7)
        current = CacheEntry(record(1, 0, 3), valid_to=None, available_at=0.0)
        assert current.covers(99)
        assert not current.covers(2)


def test_contents_lists_both_partitions(env, channel):
    cache = ClientCache(6, old_capacity=2)
    cache.insert_current(record(1, 1, 0), now=0.0)
    cache.insert_old(record(2, 2, 1), valid_to=3, now=0.0)
    assert len(cache.contents()) == 2

"""The client cache against its reference model.

:class:`~tests.client.reference_cache.ReferenceCache` walks every report
item and rescans every pending autoprefetch on every lookup;
:class:`~repro.client.cache.ClientCache` intersects the report with what
it holds, visits the hits in the report's own order, and skips the
rescan while no refresh is due.  Driven by the same operations against
the same air, the two must hold the same entries in the same LRU order
in both partitions, the same pending refreshes in the same order, count
the same hits and misses, and answer every lookup alike -- and whole
runs with either cache behind the scheme's read path must produce the
same registry.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.client import machine
from repro.client.cache import CacheEntry, ClientCache
from repro.cohort.channel import CohortChannel
from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params
from repro.cohort.shim import CohortEnv
from repro.core.control import ControlInfo, InvalidationReport, ReportSchedule
from repro.experiments.schemes import scheme_factory
from repro.graph.sgraph import TxnId
from repro.runtime import Simulation
from repro.stats.metrics import MetricsRegistry
from tests.client.reference_cache import ReferenceCache
from tests.sim.test_kernel_golden import registry_digest

#: Item ids that collide in a small hash table, so the iteration order
#: of a report's frozenset depends on how it was built -- the order the
#: cache must reproduce is the report's own, not a sorted one.
ITEMS = (1, 33, 65, 97, 2, 34, 5, 37)


class Air:
    """A tiny server: per-item values on the air, one program a cycle,
    installed into a real client view (lost slots land at ``inf``)."""

    def __init__(self) -> None:
        self.env = CohortEnv()
        self.channel = CohortChannel(self.env, MetricsRegistry())
        self.cycle = 0
        self.start = 0.0
        self.program = None
        #: item -> every (record, valid_to) it ever had, newest last.
        self.history = {
            item: [(ItemRecord(item, 0, 0, None, False), None)] for item in ITEMS
        }

    def current(self, item: int) -> ItemRecord:
        return self.history[item][-1][0]

    def next_cycle(self, updates, lost_picks):
        if self.program is not None:
            self.start = max(self.env.now, self.start + self.program.total_slots)
        self.cycle += 1
        for seq, item in enumerate(updates):
            old, _ = self.history[item][-1]
            self.history[item][-1] = (old, self.cycle - 1)
            record = ItemRecord(
                item,
                old.value + 1,
                self.cycle,
                TxnId(self.cycle - 1, seq),
                has_old_versions=bool(seq % 2),
            )
            self.history[item].append((record, None))
        buckets = [
            Bucket(index=i, records=(self.current(item),))
            for i, item in enumerate(ITEMS)
        ]
        # A repeated copy (broadcast disk): autoprefetch takes the first.
        buckets.append(Bucket(index=len(buckets), records=(self.current(ITEMS[0]),)))
        report = InvalidationReport(cycle=self.cycle, updated_items=frozenset(updates))
        self.program = BroadcastProgram(
            cycle=self.cycle,
            control=ControlInfo(cycle=self.cycle, invalidation=report),
            data_buckets=buckets,
        )
        lost = frozenset(1 + pick % len(buckets) for pick in lost_picks)
        self.env.now = self.start
        self.channel.install(self.program, lost, self.start)


def entry_fields(entry):
    if entry is None:
        return None
    return (
        entry.item, entry.value, entry.version, entry.valid_to, entry.writer,
        entry.available_at,
    )


def state(cache):
    return (
        [entry_fields(e) for e in cache._current.values()],
        [entry_fields(e) for e in cache._old.values()],
        list(cache._current),
        list(cache._old),
        [(item, p.record, p.at_time) for item, p in cache._pending.items()],
        cache.hits,
        cache.misses,
        len(cache),
        cache.hit_ratio,
    )


def check_invariants(cache: ClientCache) -> None:
    # Every current value carries the record it was installed from.
    for entry in cache._current.values():
        if entry.is_current:
            record = entry.record
            assert (record.item, record.value, record.version, record.writer) == (
                entry.item, entry.value, entry.version, entry.writer
            )
    # The due bound never passes a refresh still in flight.
    for refresh in cache._pending.values():
        assert cache._due <= refresh.at_time


item_st = st.sampled_from(ITEMS)
updates_st = st.lists(item_st, unique=True, max_size=len(ITEMS))
op_st = st.one_of(
    st.tuples(st.just("cycle"), updates_st, st.lists(st.integers(0, 9), max_size=3)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.25, 4.0, 9.0])),
    st.tuples(st.just("get"), item_st),
    st.tuples(st.just("cover"), item_st, st.integers(0, 4)),
    st.tuples(st.just("insert"), item_st),
    st.tuples(st.just("insert_old"), item_st, st.integers(1, 4)),
    st.tuples(st.just("missed"), updates_st),
    st.tuples(st.just("prefetch"), st.booleans()),
    st.tuples(st.just("bypass"), st.booleans()),
    st.tuples(st.just("clear")),
    st.tuples(st.just("export")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=500, deadline=None)
@given(
    capacity=st.integers(2, 6),
    old_share=st.integers(0, 3),
    ops=st.lists(op_st, min_size=1, max_size=60),
)
def test_cache_agrees_with_its_reference(capacity, old_share, ops):
    old_capacity = min(old_share, capacity - 1)
    ours = ClientCache(capacity, old_capacity=old_capacity)
    ref = ReferenceCache(capacity, old_capacity=old_capacity)
    air = Air()
    snapshots = None
    air.next_cycle([], [])
    for cache in (ours, ref):
        cache.handle_cycle_start(air.program, air.channel)
    for op in ops:
        kind, now = op[0], air.env.now
        if kind == "cycle":
            air.next_cycle(op[1], op[2])
            for cache in (ours, ref):
                cache.handle_cycle_start(air.program, air.channel)
        elif kind == "tick":
            air.env.now += op[1]
        elif kind == "get":
            hit = ours.get_current(op[1], now)
            assert entry_fields(hit) == entry_fields(ref.get_current(op[1], now))
            if hit is not None:
                assert hit.record is not None
        elif kind == "cover":
            cycle = air.cycle - op[2]
            assert entry_fields(ours.get_covering(op[1], cycle, now)) == entry_fields(
                ref.get_covering(op[1], cycle, now)
            )
        elif kind == "insert":
            record = air.current(op[1])
            ours.insert_current(record, now)
            ref.insert_current(record, now)
            if not ours.bypass:
                assert ours._current[op[1]].record is record
        elif kind == "insert_old":
            versions = air.history[op[1]]
            record, valid_to = versions[max(0, len(versions) - 1 - op[2])]
            if valid_to is not None:
                ours.insert_old(record, valid_to, now)
                ref.insert_old(record, valid_to, now)
        elif kind == "missed":
            report = InvalidationReport(cycle=air.cycle, updated_items=frozenset(op[1]))
            ours.apply_missed_report(report)
            ref.apply_missed_report(report)
        elif kind == "prefetch":
            ours.autoprefetch_enabled = ref.autoprefetch_enabled = op[1]
        elif kind == "bypass":
            ours.bypass = ref.bypass = op[1]
        elif kind == "clear":
            ours.clear()
            ref.clear()
        elif kind == "export":
            mine, theirs = ours.export_entries(), ref.export_entries()
            for got, want in zip(mine, theirs):
                assert [entry_fields(e) for e in got] == [entry_fields(e) for e in want]
            snapshots = (mine, theirs)
        elif kind == "restore" and snapshots is not None:
            ours.restore_entries(*snapshots[0])
            ref.restore_entries(*snapshots[1])
        assert state(ours) == state(ref), op
        check_invariants(ours)
    assert [entry_fields(e) for e in ours.contents()] == [
        entry_fields(e) for e in ref.contents()
    ]


def test_a_restored_hand_built_entry_hits_with_a_record():
    cache = ClientCache(4)
    hand = CacheEntry(ItemRecord(5, 9, 2, None), valid_to=None, available_at=0.0)
    cache.restore_entries([hand], [])
    hit = cache.get_current(5, now=1.0)
    assert hit is not hand  # the checkpoint itself is never cached
    assert hit.record == ItemRecord(5, 9, 2, None)


class ScanCounting(dict):
    """A pending map that counts the scans made of it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_no_lookup_rescans_while_no_refresh_is_due():
    air = Air()
    cache = ClientCache(8)
    air.next_cycle([], [])
    cache.handle_cycle_start(air.program, air.channel)
    for item in ITEMS[:3]:
        cache.insert_current(air.current(item), air.env.now)
    air.next_cycle([ITEMS[1]], [])
    cache.handle_cycle_start(air.program, air.channel)
    landing = cache._pending[ITEMS[1]].at_time
    assert cache._due == landing
    cache._pending = pending = ScanCounting(cache._pending)
    cache.get_current(ITEMS[0], landing - 0.5)
    cache.get_covering(ITEMS[0], air.cycle, landing - 0.5)
    assert pending.scans == 0
    assert cache.get_current(ITEMS[1], landing).value == 1
    assert pending.scans == 1 and cache._due == math.inf


class Twins:
    """Both caches on one air; every call goes to both, then their
    states must agree."""

    def __init__(self, capacity=8, old_capacity=0):
        self.air = Air()
        self.ours = ClientCache(capacity, old_capacity=old_capacity)
        self.ref = ReferenceCache(capacity, old_capacity=old_capacity)
        self.cycle([])

    def both(self, method, *args):
        mine = getattr(self.ours, method)(*args)
        theirs = getattr(self.ref, method)(*args)
        assert entry_fields(mine) == entry_fields(theirs)
        assert state(self.ours) == state(self.ref)
        check_invariants(self.ours)
        return mine

    def cycle(self, updates, lost=()):
        self.air.next_cycle(updates, lost)
        self.both("handle_cycle_start", self.air.program, self.air.channel)
        return self.air.program.control.invalidation

    def insert(self, *items):
        for item in items:
            self.both("insert_current", self.air.current(item), self.air.env.now)


@pytest.mark.parametrize("old_capacity", [0, 3])
def test_hits_are_visited_in_the_report_order_not_sorted(old_capacity):
    twins = Twins(old_capacity=old_capacity)
    twins.insert(1, 33, 65)
    report = twins.cycle([65, 33, 1])
    order = list(report.updated_items)
    assert order != sorted(order)  # a sorted walk would differ
    assert list(twins.ours._pending) == order
    if old_capacity:
        assert [item for item, _ in twins.ours._old] == order
    twins.air.env.now += 9.0
    twins.both("get_current", 2, twins.air.env.now)  # lands all three
    assert list(twins.ours._current) == order


@pytest.mark.parametrize("old_capacity", [0, 3])
def test_a_report_re_arms_a_refresh_still_in_flight(old_capacity):
    twins = Twins(old_capacity=old_capacity)
    twins.insert(33)
    # Slot 2 carries item 33: its refresh is lost and stays in flight,
    # and in the multiversion cache the item leaves the current side.
    twins.cycle([33], lost=[1])
    assert twins.ours._pending[33].at_time == math.inf
    assert (33 in twins.ours._current) == (old_capacity == 0)
    twins.cycle([33])
    refresh = twins.ours._pending[33]
    assert refresh.record.version == twins.air.cycle and refresh.at_time < math.inf
    twins.air.env.now += 9.0
    hit = twins.both("get_current", 33, twins.air.env.now)
    assert hit.version == twins.air.cycle


def test_a_partial_landing_keeps_the_rest_due():
    twins = Twins()
    twins.insert(1, 97)
    twins.cycle([1, 97])
    first, last = sorted(r.at_time for r in twins.ours._pending.values())
    twins.air.env.now = first
    twins.both("get_current", 2, first)
    assert list(twins.ours._pending) == [97] and twins.ours._due == last
    twins.air.env.now = last
    assert twins.both("get_current", 97, last).version == twins.air.cycle


def test_a_lost_slot_never_comes_due():
    air = Air()
    cache = ClientCache(8)
    air.next_cycle([], [])
    cache.handle_cycle_start(air.program, air.channel)
    cache.insert_current(air.current(ITEMS[2]), air.env.now)
    # Slot 3 carries ITEMS[2] (control slot 0, then one bucket per item).
    air.next_cycle([ITEMS[2]], [2])
    cache.handle_cycle_start(air.program, air.channel)
    assert cache._pending[ITEMS[2]].at_time == math.inf
    assert cache._due == math.inf
    assert cache.get_current(ITEMS[2], 1e9) is None


def test_report_order_is_its_own_iteration_order():
    built = [frozenset(ITEMS), frozenset(reversed(ITEMS))]
    assert list(built[0]) != list(built[1])  # equal sets, two orders
    for updated in built:
        report = InvalidationReport(cycle=4, updated_items=updated)
        assert report.ordered(reversed(ITEMS)) == list(updated)
        assert report.ordered([ITEMS[5], ITEMS[0]]) == [
            item for item in updated if item in (ITEMS[5], ITEMS[0])
        ]
    # The rank is shared state, not a field: equality and repr ignore it.
    a = InvalidationReport(cycle=4, updated_items=frozenset(ITEMS))
    b = InvalidationReport(cycle=4, updated_items=frozenset(ITEMS))
    a.ordered(ITEMS)
    assert "_rank" in vars(a) and "_rank" not in vars(b)
    assert a == b and repr(a) == repr(b)


# -- whole runs --------------------------------------------------------------


class RebuiltRecords(ReferenceCache):
    """The reference cache behind the scheme's read path, whose hits
    carry a record rebuilt from the entry's fields, as reads did before
    the cache kept the record it installed."""

    @staticmethod
    def _rebuilt(entry):
        if entry is not None:
            entry.record = ItemRecord(
                item=entry.item, value=entry.value, version=entry.version,
                writer=entry.writer,
            )
        return entry

    def get_current(self, item, now):
        return self._rebuilt(super().get_current(item, now))

    def get_covering(self, item, cycle, now):
        return self._rebuilt(super().get_covering(item, cycle, now))


ENGINES = {"discrete": Simulation, "cohort": CohortSimulation}
CACHED_SCHEMES = (
    "inval+cache", "multiversion+cache", "mv-caching", "sgt+cache",
    "versioned-cache",
)


def _digest(engine, scheme, faults, seed, cache_class, monkeypatch, **extra):
    monkeypatch.setattr(machine, "ClientCache", cache_class)
    params = oracle_params(6, seed, faults, num_cycles=50)
    sim = ENGINES[engine](params, scheme_factory=scheme_factory(scheme), **extra)
    return registry_digest(sim.run().metrics)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheme", CACHED_SCHEMES)
@pytest.mark.parametrize("faults", [False, True])
def test_whole_run_equals_the_reference_cache(engine, scheme, faults, monkeypatch):
    ours = _digest(engine, scheme, faults, 11, ClientCache, monkeypatch)
    twin = _digest(engine, scheme, faults, 11, RebuiltRecords, monkeypatch)
    assert ours == twin


@pytest.mark.parametrize("scheme", ["inval+cache", "mv-caching"])
def test_resilient_run_equals_the_reference_cache(scheme, monkeypatch):
    """Crashes, checkpoints, catch-up replays, the degradation ladder
    (autoprefetch off, bypass) and watchdog flushes, through both caches."""

    def run(cache_class):
        monkeypatch.setattr(machine, "ClientCache", cache_class)
        params = oracle_params(4, 7, True, num_cycles=60).with_resilience(
            retry_policy="cause-aware",
            checkpoint_interval=5,
            catchup_window=8,
            crash_rate=0.06,
            watchdog_attempts=4,
            degrade_after=2,
            recover_after=2,
        )
        sim = Simulation(
            params,
            scheme_factory=scheme_factory(scheme),
            report_schedule=ReportSchedule(window=8),
        )
        return registry_digest(sim.run().metrics)

    assert run(ClientCache) == run(RebuiltRecords)

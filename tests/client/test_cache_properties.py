"""Property-based tests of the client cache's invariants.

Under arbitrary interleavings of demand inserts, invalidation reports,
autoprefetch maturation and lookups:

* capacity bounds always hold in both partitions;
* per item, validity intervals never overlap and never extend past the
  next version's start;
* a ``get_covering(item, c)`` hit always returns a value whose interval
  contains ``c``;
* the current entry (if any) has the newest version of all entries for
  its item.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.client.cache import ClientCache
from repro.core.control import ControlInfo, InvalidationReport
from repro.sim import Environment

ITEMS = list(range(1, 9))


def build_program(cycle, values):
    buckets = [
        Bucket(index=i, records=(ItemRecord(item, *values[item]),))
        for i, item in enumerate(ITEMS)
    ]
    updated = frozenset(
        item for item in ITEMS if values[item][1] == cycle
    )
    control = ControlInfo(
        cycle=cycle,
        invalidation=InvalidationReport(cycle=cycle, updated_items=updated),
    )
    return BroadcastProgram(
        cycle=cycle, control=control, data_buckets=buckets, control_slots=1
    )


class World:
    """A tiny server driving the cache through cycles."""

    def __init__(self, multiversion):
        self.env = Environment()
        self.channel = BroadcastChannel(self.env)
        self.cache = ClientCache(6, old_capacity=2 if multiversion else 0)
        self.cycle = 0
        #: item -> (value, version) currently on the air.
        self.values = {item: (0, 0) for item in ITEMS}
        self.next_value = 1

    def advance_cycle(self, updates):
        self.cycle += 1
        for item in updates:
            self.values[item] = (self.next_value, self.cycle)
            self.next_value += 1
        program = build_program(self.cycle, self.values)
        self.channel.begin_cycle(program)
        self.cache.handle_cycle_start(program, self.channel)
        self.program = program

    def tick(self, dt=1.0):
        self.env._now += dt  # direct clock advance: no processes involved

    def record_of(self, item):
        value, version = self.values[item]
        return ItemRecord(item=item, value=value, version=version)


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=5, max_value=30))):
        kind = draw(st.sampled_from(["cycle", "insert", "lookup", "covering", "tick"]))
        if kind == "cycle":
            updates = draw(st.sets(st.sampled_from(ITEMS), max_size=4))
            ops.append(("cycle", updates))
        elif kind == "insert":
            ops.append(("insert", draw(st.sampled_from(ITEMS))))
        elif kind == "lookup":
            ops.append(("lookup", draw(st.sampled_from(ITEMS))))
        elif kind == "covering":
            ops.append(
                ("covering", draw(st.sampled_from(ITEMS)), draw(st.integers(0, 12)))
            )
        else:
            ops.append(("tick",))
    return ops


def check_invariants(world):
    cache = world.cache
    assert len(cache._current) <= cache.current_capacity
    assert len(cache._old) <= cache.old_capacity

    by_item = {}
    for entry in cache.contents():
        by_item.setdefault(entry.item, []).append(entry)
    for item, entries in by_item.items():
        currents = [e for e in entries if e.valid_to is None]
        assert len(currents) <= 1
        # Intervals must not overlap pairwise.
        spans = sorted(
            (e.version, e.valid_to if e.valid_to is not None else float("inf"))
            for e in entries
        )
        for (a_from, a_to), (b_from, b_to) in zip(spans, spans[1:]):
            assert a_to < b_from or (a_from, a_to) == (b_from, b_to)
        if currents:
            newest = max(e.version for e in entries)
            assert currents[0].version == newest


@given(ops=operations(), multiversion=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cache_invariants_under_random_operations(ops, multiversion):
    world = World(multiversion)
    world.advance_cycle(set())  # cycle 1 baseline

    for op in ops:
        if op[0] == "cycle":
            world.advance_cycle(op[1])
        elif op[0] == "insert":
            world.cache.insert_current(world.record_of(op[1]))
        elif op[0] == "lookup":
            record = world.cache.get_current(op[1], world.env.now)
            if record is not None:
                # A current hit is exactly the on-air value.
                value, version = world.values[op[1]]
                assert record.value == value
                assert record.version == version
        elif op[0] == "covering":
            _, item, cycle = op
            record = world.cache.get_covering(item, cycle, world.env.now)
            if record is not None:
                # The hit's interval, as the cache holds it.
                (entry,) = [e for e in world.cache.contents() if e.record is record]
                assert entry.covers(cycle)
        else:
            world.tick()
        check_invariants(world)

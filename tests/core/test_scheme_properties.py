"""Property tests of the consistency substrate the schemes stand on.

Hypothesis drives random read/update interleavings through the server's
:class:`~repro.server.columnar.ColumnarVersionStore` and through the two client
caches (plain/versioned and multiversion-partitioned), checking the
invariants the correctness proofs of Theorems 2, 4, and 5 quantify over:

* version chains are monotone in cycle and strictly increasing in value;
* ``best_version_at(item, c)`` never yields a version newer than ``c``,
  and while the retention window covers ``c`` it yields *exactly* the
  snapshot value ``DS^c``;
* the caches never serve a version newer than the pinned cycle: every
  ``get_covering(item, c)`` hit satisfies ``version <= c <= valid_to``
  (with open intervals for still-current values), and its value equals
  the database's ``value_at(item, c)``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.client.cache import ClientCache
from repro.core.control import ControlInfo, InvalidationReport
from repro.graph.sgraph import TxnId
from repro.server.database import Database
from repro.server.columnar import ColumnarVersionStore
from repro.sim import Environment
from tests.server.store_probes import best_version_at

N_ITEMS = 6
ITEMS = list(range(1, N_ITEMS + 1))

#: A run: per cycle, the set of items updated during the previous cycle.
update_schedules = st.lists(
    st.frozensets(st.sampled_from(ITEMS), max_size=3), min_size=1, max_size=25
)


# -- the server-side store ----------------------------------------------------


class ServerModel:
    """Database + ColumnarVersionStore driven cycle by cycle, like the engine."""

    def __init__(self, retention: int) -> None:
        self.database = Database(N_ITEMS)
        self.store = ColumnarVersionStore(self.database, retention=retention)
        self.cycle = 0

    def advance(self, updates) -> None:
        self.cycle += 1
        for seq, item in enumerate(sorted(updates)):
            old = self.database.current(item)
            self.database.write(
                item, self.cycle, writer=TxnId(cycle=self.cycle, seq=seq)
            )
            self.store.record_supersedure(old, superseded_at=self.cycle)
        self.store.evict_expired(self.cycle)


@given(schedule=update_schedules, retention=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_version_store_invariants(schedule, retention):
    model = ServerModel(retention)
    for updates in schedule:
        model.advance(updates)

        for item in ITEMS:
            chain = model.database.chain_of(item)
            # Chains are monotone in cycle and strictly increasing in value.
            assert all(a.cycle <= b.cycle for a, b in zip(chain, chain[1:]))
            assert all(a.value < b.value for a, b in zip(chain, chain[1:]))

            retained = model.store.on_air(item)
            # Retained windows are ordered, disjoint, and within retention.
            assert all(
                a.valid_to < b.valid_from or a.superseded_at <= b.superseded_at
                for a, b in zip(retained, retained[1:])
            )
            for rv in retained:
                assert model.cycle - rv.superseded_at < retention

            for probe in range(0, model.cycle + 1):
                best = best_version_at(model.store, item, probe)
                truth = model.database.value_at(item, probe)
                if best is not None:
                    # Never newer than the pinned cycle...
                    assert best.cycle <= probe
                    # ...and when present, exactly the snapshot value.
                    assert best.value == truth.value
                else:
                    # Absent only when the window genuinely expired.
                    superseded_at = next(
                        v.cycle
                        for v in model.database.chain_of(item)
                        if v.cycle > probe
                    )
                    assert model.cycle - superseded_at >= retention


# -- the client caches --------------------------------------------------------


def build_program(cycle, values):
    buckets = [
        Bucket(index=i, records=(ItemRecord(item, *values[item]),))
        for i, item in enumerate(ITEMS)
    ]
    updated = frozenset(item for item in ITEMS if values[item][1] == cycle)
    control = ControlInfo(
        cycle=cycle,
        invalidation=InvalidationReport(cycle=cycle, updated_items=updated),
    )
    return BroadcastProgram(
        cycle=cycle, control=control, data_buckets=buckets, control_slots=1
    )


class CacheModel:
    """A listening client's cache next to a ground-truth database."""

    def __init__(self, multiversion: bool) -> None:
        self.env = Environment()
        self.channel = BroadcastChannel(self.env)
        self.cache = ClientCache(8, old_capacity=3 if multiversion else 0)
        self.database = Database(N_ITEMS)
        self.cycle = 0
        self.values = {item: (0, 0) for item in ITEMS}

    def advance(self, updates) -> None:
        self.cycle += 1
        for seq, item in enumerate(sorted(updates)):
            version = self.database.write(
                item, self.cycle, writer=TxnId(cycle=self.cycle, seq=seq)
            )
            self.values[item] = (version.value, self.cycle)
        program = build_program(self.cycle, self.values)
        self.env._now = float((self.cycle - 1) * (N_ITEMS + 1))
        self.channel.begin_cycle(program)
        self.cache.handle_cycle_start(program, self.channel)

    def read_current(self, item) -> None:
        """A demand read off the air, cached like the schemes cache it."""
        value, version = self.values[item]
        self.cache.insert_current(
            ItemRecord(item=item, value=value, version=version), self.env.now
        )

    def tick(self, dt: float) -> None:
        self.env._now += dt


@st.composite
def cache_runs(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=3, max_value=20))):
        kind = draw(st.sampled_from(["cycle", "read", "tick", "probe"]))
        if kind == "cycle":
            steps.append(("cycle", draw(st.frozensets(st.sampled_from(ITEMS), max_size=3))))
        elif kind == "read":
            steps.append(("read", draw(st.sampled_from(ITEMS))))
        elif kind == "tick":
            steps.append(("tick", draw(st.floats(min_value=0.5, max_value=8.0))))
        else:
            steps.append(("probe", draw(st.sampled_from(ITEMS))))
    return steps


@given(run=cache_runs(), multiversion=st.booleans())
@settings(max_examples=80, deadline=None)
def test_cache_never_serves_a_version_newer_than_the_pinned_cycle(
    run, multiversion
):
    model = CacheModel(multiversion)
    model.advance(frozenset())  # cycle 1 on the air before anything happens
    rng = random.Random(0)
    for kind, arg in run:
        if kind == "cycle":
            model.advance(arg)
        elif kind == "read":
            model.read_current(arg)
        elif kind == "tick":
            model.tick(arg)
        else:
            pinned = rng.randint(0, model.cycle)
            entry = model.cache.get_covering(arg, pinned, model.env.now)
            if entry is None:
                continue
            assert entry.version <= pinned
            if entry.valid_to is not None:
                assert pinned <= entry.valid_to
            truth = model.database.value_at(arg, pinned)
            assert entry.value == truth.value, (
                f"cache served value {entry.value} for item {arg} pinned at "
                f"cycle {pinned}; the broadcast snapshot had {truth.value}"
            )

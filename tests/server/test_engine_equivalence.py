"""The plan-then-execute engine commits what the serial loop committed.

Three nets under the rebuilt commit path:

* *golden digests* recorded at the commit before the rebuild (77205e2):
  60 cycles of what goes on the wire plus what the engine returned, per
  requirements cell and seed, through ``build_substrate`` -- the same
  RNG calls in the same order, the same frames;
* a *reference model* (``reference_engine``: that commit's serial loop
  and samplers, verbatim) swept by Hypothesis over workload shapes,
  restrictions, execution modes and batch splits;
* the *draw closure* against the reference samplers draw for draw,
  through the exhausted-rejection fill paths too.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.live.codec import CycleCodec, WireProfile
from repro.seeds import SeedOrder
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database
from repro.server.substrate import build_substrate
from repro.server.transactions import (
    TransactionEngine,
    _RestrictedGenerator,
    merge_outcomes,
)
from repro.stats.zipf import OffsetZipfGenerator, ZipfGenerator
from tests.server.reference_engine import (
    ReferenceEngine,
    ReferenceOffsetZipf,
    ReferenceRestricted,
    ReferenceZipf,
)

# -- (a) golden digests --------------------------------------------------------

CYCLES = 60

CELLS = {
    "inval": (BroadcastRequirements(), {}),
    "multiversion": (
        BroadcastRequirements(needs_old_versions=True),
        {"updates_per_cycle": 400, "transactions_per_cycle": 40},
    ),
    "sgt": (BroadcastRequirements(needs_sgt=True), {}),
    "sgt+multiversion": (
        BroadcastRequirements(
            needs_old_versions=True,
            needs_sgt=True,
            needs_versions_on_items=True,
        ),
        {},
    ),
}

#: Recorded by running :func:`run_digest` at commit 77205e2.
GOLDEN = {
    ("inval", 7): "747b85f4f672c62528060327ec36950c8a4780b4",
    ("inval", 11): "714c3d62287eb46e658482c1f2656791ed8d3f52",
    ("multiversion", 7): "ab3cce76b6c568915b2ac8c47339770e2e9fb19e",
    ("multiversion", 11): "481da8a9a5bafa31a9b657475e84a3b4d5371160",
    ("sgt", 7): "60f5c10360de108fa170e3718ebfcfdad7f5a742",
    ("sgt", 11): "374126e5e2aab06010e9364054cffcf2ba778c8e",
    ("sgt+multiversion", 7): "53456f09017c7d19d23bc5eaac06aab642ca4ece",
    ("sgt+multiversion", 11): "0ae2e384a0eac2c2285f02c1ad85075feb775a26",
}


def run_digest(cell, seed):
    """SHA-1 over every frame aired and every outcome returned; also hands
    back the engine for the state checks that ride on the same run."""
    requirements, overrides = CELLS[cell]
    server = ServerParameters(**overrides)
    substrate = build_substrate(
        server, requirements, SeedOrder(seed).engine_rng()
    )
    codec = CycleCodec(WireProfile.from_params(server, requirements))
    sha = hashlib.sha1()
    outcome, slot = None, 0
    for cycle in range(1, CYCLES + 1):
        program = substrate.builder.build(cycle, outcome)
        for frame in codec.encode_cycle(program, slot):
            sha.update(frame)
        slot += program.total_slots
        outcome = substrate.engine.run_cycle(cycle)
        told = (
            [
                ((t.tid.cycle, t.tid.seq), sorted(t.readset), sorted(t.writeset))
                for t in outcome.transactions
            ],
            sorted(outcome.updated_items),
            sorted((i, w.cycle, w.seq) for i, w in outcome.first_writers.items()),
        )
        sha.update(repr(told).encode())
    return sha.hexdigest(), substrate.engine


@pytest.mark.parametrize("cell, seed", sorted(GOLDEN))
def test_golden_digest(cell, seed):
    digest, engine = run_digest(cell, seed)
    assert digest == GOLDEN[cell, seed]
    # Reader sets exist only where a write can ever collect them.
    support = set(engine._update_gen.support())
    assert set(engine._readers_since_write) <= support
    if CELLS[cell][0].needs_sgt:
        assert engine._readers_since_write
    else:
        assert not engine._readers_since_write


# -- (b) the reference model ---------------------------------------------------


@st.composite
def worlds(draw):
    broadcast_size = draw(st.integers(min_value=4, max_value=60))
    update_range = draw(st.integers(min_value=1, max_value=broadcast_size))
    per_txn = draw(st.integers(min_value=1, max_value=min(update_range, 4)))
    txns = draw(st.integers(min_value=1, max_value=6))
    params = ServerParameters(
        broadcast_size=broadcast_size,
        update_range=update_range,
        offset=draw(st.integers(min_value=0, max_value=broadcast_size)),
        theta=draw(st.sampled_from([0.0, 0.5, 0.95, 2.0])),
        transactions_per_cycle=txns,
        updates_per_cycle=txns * per_txn,
        reads_per_update=draw(st.integers(min_value=1, max_value=4)),
    )
    restriction = draw(st.sampled_from(["none", "contiguous", "hashed"]))
    universe = range(1, broadcast_size + 1)
    if restriction == "none":
        restrict = None
    elif restriction == "contiguous":
        lo = draw(st.integers(min_value=1, max_value=broadcast_size))
        hi = draw(st.integers(min_value=lo, max_value=broadcast_size))
        restrict = frozenset(range(lo, hi + 1))
    else:
        modulus = draw(st.integers(min_value=2, max_value=4))
        residue = draw(st.integers(min_value=0, max_value=modulus - 1))
        restrict = frozenset(i for i in universe if i % modulus == residue)
    if restrict is not None:
        updatable = OffsetZipfGenerator(
            update_range, params.theta, params.offset, broadcast_size
        ).support()
        assume(any(item in restrict for item in updatable))
    return params, restrict


def _world(engine_class, params, restrict, seed, interleaved, **extra):
    database = Database(params.broadcast_size)
    store = ColumnarVersionStore(database, retention=2)
    engine = engine_class(
        params,
        database,
        version_store=store,
        rng=random.Random(seed),
        interleaved=interleaved,
        restrict_items=restrict,
        **extra,
    )
    return database, store, engine


def _commit_cycle(engine, cycle, parts):
    total = engine.params.transactions_per_cycle
    bounds = [round(i * total / parts) for i in range(parts + 1)]
    batches = [
        engine.run_batch(cycle, range(bounds[j], bounds[j + 1]))
        for j in range(parts)
    ]
    return batches[0] if parts == 1 else merge_outcomes(batches)


@given(
    world=worlds(),
    seed=st.integers(min_value=0, max_value=2**32),
    interleaved=st.booleans(),
    parts=st.sampled_from([1, 3]),
    tracked=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_engine_commits_what_the_reference_commits(
    world, seed, interleaved, parts, tracked
):
    params, restrict = world
    # A directly constructed engine tracks conflicts unless told not to.
    extra = {} if tracked else {"track_conflicts": False}
    database, store, engine = _world(
        TransactionEngine, params, restrict, seed, interleaved, **extra
    )
    ref_database, ref_store, reference = _world(
        ReferenceEngine, params, restrict, seed, interleaved
    )
    for cycle in range(1, 7):
        outcome = _commit_cycle(engine, cycle, parts)
        expected = _commit_cycle(reference, cycle, parts)
        if not tracked:
            assert outcome.diff is None
            expected = dataclasses.replace(expected, diff=None)
        assert outcome == expected
        assert store.overflow_records() == ref_store.overflow_records()
    for item in database.items():
        assert database.chain_of(item) == ref_database.chain_of(item)
    assert engine._rng.getstate() == reference._rng.getstate()
    if tracked:
        assert engine._last_writer == reference._last_writer


# -- (c) the draw closure ------------------------------------------------------

thetas = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
counts = st.lists(st.integers(min_value=0, max_value=40), max_size=6)


def _same_draws(new, ref, new_rng, ref_rng, distinct_counts, max_distinct):
    assert [new.draw() for _ in range(50)] == [ref.sample() for _ in range(50)]
    assert [new.sample() for _ in range(50)] == [ref.sample() for _ in range(50)]
    for count in distinct_counts:
        count = min(count, max_distinct)
        assert new.sample_distinct(count) == ref.sample_distinct(count)
    assert new_rng.getstate() == ref_rng.getstate()


@given(
    n=st.integers(min_value=1, max_value=120),
    theta=thetas,
    first=st.integers(min_value=-3, max_value=50),
    distinct=counts,
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_draw_closure_equals_scalar_sampling(n, theta, first, distinct, seed):
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    _same_draws(
        ZipfGenerator(n, theta, rng=new_rng, first=first),
        ReferenceZipf(n, theta, rng=ref_rng, first=first),
        new_rng, ref_rng, distinct, n,
    )


@given(
    n=st.integers(min_value=1, max_value=120),
    theta=thetas,
    offset=st.integers(min_value=0, max_value=300),
    slack=st.integers(min_value=0, max_value=60),
    stride=st.integers(min_value=1, max_value=5),
    distinct=counts,
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_rotated_and_restricted_draws_equal_scalar_sampling(
    n, theta, offset, slack, stride, distinct, seed
):
    universe = n + slack
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    new = OffsetZipfGenerator(n, theta, offset, universe, rng=new_rng)
    ref = ReferenceOffsetZipf(n, theta, offset, universe, rng=ref_rng)
    assert list(new.support()) == ref.support()
    _same_draws(new, ref, new_rng, ref_rng, distinct, n)

    allowed = frozenset(ref.support()[::-1][::stride])
    _same_draws(
        _RestrictedGenerator(new, allowed),
        ReferenceRestricted(ref, allowed),
        new_rng, ref_rng, distinct, len(allowed),
    )


def test_fill_paths_are_reached_and_agree():
    """Skew so steep that rejection runs out: the plain generator fills
    from the hottest remaining ranks, the restricted one falls back onto
    its support -- draw for draw what the reference does."""
    new_rng, ref_rng = random.Random(5), random.Random(5)
    new = OffsetZipfGenerator(60, 6.0, 7, 80, rng=new_rng)
    ref = ReferenceOffsetZipf(60, 6.0, 7, 80, rng=ref_rng)
    full = new.sample_distinct(60)
    assert full == ref.sample_distinct(60)
    assert sorted(full) == sorted(new.support())
    # The coldest ranks were never drawn: they arrive in rank order.
    assert full[-20:] == list(new.support())[-20:]

    coldest = frozenset(list(new.support())[-5:])
    restricted = _RestrictedGenerator(new, coldest)
    reference = ReferenceRestricted(ref, coldest)
    assert [restricted.draw() for _ in range(20)] == [
        reference.sample() for _ in range(20)
    ]
    assert restricted.sample_distinct(5) == reference.sample_distinct(5)
    assert new_rng.getstate() == ref_rng.getstate()

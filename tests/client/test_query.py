"""Tests for client query generation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.query import Query, QueryGenerator
from repro.config import ClientParameters


def make_generator(seed=1, **overrides):
    defaults = dict(read_range=40, ops_per_query=8, theta=0.95, think_time=2.0)
    defaults.update(overrides)
    params = ClientParameters(**defaults)
    return QueryGenerator(params, rng=random.Random(seed))


def test_query_items_distinct_and_in_range():
    gen = make_generator()
    for _ in range(50):
        query = gen.next_query()
        assert len(query.items) == 8
        assert len(set(query.items)) == 8
        assert all(1 <= item <= 40 for item in query.items)


def test_query_ids_increase():
    gen = make_generator()
    ids = [gen.next_query().query_id for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_sort_reads_orders_by_broadcast_position():
    gen = make_generator(sort_reads=True)
    for _ in range(20):
        items = gen.next_query().items
        assert list(items) == sorted(items)


def test_unsorted_reads_not_always_sorted():
    gen = make_generator(sort_reads=False)
    assert any(
        list(gen.next_query().items) != sorted(gen.next_query().items)
        for _ in range(20)
    )


def test_hot_items_dominate():
    gen = make_generator(ops_per_query=1)
    counts = {}
    for _ in range(2000):
        item = gen.next_query().items[0]
        counts[item] = counts.get(item, 0) + 1
    assert counts.get(1, 0) > counts.get(40, 0)


def test_think_time_positive_with_mean():
    gen = make_generator()
    times = [gen.think_time() for _ in range(500)]
    assert all(t >= 0 for t in times)
    assert sum(times) / len(times) == pytest.approx(2.0, rel=0.3)


def test_zero_think_time():
    gen = make_generator(think_time=0.0)
    assert gen.think_time() == 0.0


def test_deterministic_with_seed():
    a = [make_generator(seed=7).next_query().items for _ in range(1)][0]
    b = [make_generator(seed=7).next_query().items for _ in range(1)][0]
    assert a == b


def test_query_size_property():
    assert Query(query_id=0, items=(1, 2, 3)).size == 3


# -- think_time is the stdlib's exponential draw ------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mean=st.floats(min_value=1e-3, max_value=1e3),
    draws=st.integers(1, 12),
)
def test_think_time_is_expovariate_draw_for_draw(seed, mean, draws):
    """``think_time`` spells ``expovariate(1.0 / mean)`` out: the same
    value from the same single uniform, so the Zipf item draws of the
    queries between think times stay where they were."""
    gen = make_generator(seed=seed, think_time=mean)
    twin_rng = random.Random(seed)
    twin = QueryGenerator(gen.params, rng=twin_rng)
    for _ in range(draws):
        assert gen.next_query().items == twin.next_query().items
        assert gen.think_time() == twin_rng.expovariate(1.0 / mean)
        assert gen.think_time() == twin_rng.expovariate(1.0 / mean)


@given(seed=st.integers(0, 2**32 - 1), mean=st.sampled_from([0.0, -0.0, -1.0, -2.5]))
def test_no_think_time_draws_no_uniform(seed, mean):
    gen = make_generator(seed=seed, think_time=mean)
    state = gen._rng.getstate()
    assert gen.think_time() == 0.0
    assert gen._rng.getstate() == state

"""Shared fixtures: small, fast model parameterizations."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.config import ModelParameters
from repro.server import substrate
from tests.server.reference_versions import VersionStore


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def on_dict_store(monkeypatch):
    """Whole runs on the dict-backed reference store.

    ``with on_dict_store() as built:`` substitutes the one place a
    server builds its item store (``build_substrate``'s
    ``ColumnarVersionStore``), so every substrate built inside the block
    -- by ``Simulation``, ``ShardedSimulation``, ``CohortSimulation.run``,
    a live server or ``repro run`` -- keeps its state in the reference
    :class:`VersionStore` (``tests/server/reference_versions.py``).
    ``built`` collects those stores; assert it is non-empty so a moved
    construction site cannot pass vacuously.
    """

    @contextmanager
    def swap():
        built = []

        def make_dict_store(database, retention, items=None):
            built.append(VersionStore(database, retention=retention))
            return built[-1]

        with monkeypatch.context() as patch:
            patch.setattr(substrate, "ColumnarVersionStore", make_dict_store)
            yield built

    return swap


@pytest.fixture
def small_params() -> ModelParameters:
    """A small but non-trivial configuration for integration tests.

    100 items, 10 buckets per cycle, moderate update pressure: runs in
    tens of milliseconds while still exercising invalidations, old
    versions, and graph cycles.
    """
    return (
        ModelParameters()
        .with_server(
            broadcast_size=100,
            update_range=50,
            offset=30,
            updates_per_cycle=8,
            transactions_per_cycle=5,
            items_per_bucket=10,
            retention=12,
        )
        .with_client(
            read_range=40,
            ops_per_query=4,
            think_time=0.5,
            cache_size=20,
            max_attempts=6,
        )
        .with_sim(num_cycles=40, warmup_cycles=4, seed=7)
    )


@pytest.fixture
def hot_params(small_params: ModelParameters) -> ModelParameters:
    """Maximal read/update overlap: offset 0, heavier updates.

    Guarantees plenty of invalidations and aborts in a short run.
    """
    return small_params.with_server(offset=0, updates_per_cycle=20)


@pytest.fixture
def medium_params(small_params: ModelParameters) -> ModelParameters:
    """Moderate overlap with enough clients/cycles for stable rates.

    The regime where the SGT advantage over invalidation-only is
    clearest (Figure 5/6 shapes).
    """
    return small_params.with_server(offset=10, updates_per_cycle=10).with_sim(
        num_cycles=80, warmup_cycles=5, num_clients=8
    )

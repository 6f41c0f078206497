"""Paper-shape suite configuration: scaled-down experiment profiles.

These tests regenerate every figure and table of the paper on a
reduced profile (fewer cycles, clients and sweep points than the full
harness in ``repro.experiments``) so the whole suite runs in a few
seconds.  The *shapes* asserted here are the paper's headline claims;
absolute numbers belong to EXPERIMENTS.md, produced by the full profile.
"""

from __future__ import annotations

import pytest

from repro.config import ModelParameters
from repro.experiments.runner import ExperimentProfile

#: Profile used by every sweep in this suite.
PAPER_PROFILE = ExperimentProfile(
    num_cycles=60, warmup_cycles=6, num_clients=6, seeds=(17,)
)

#: A 4x-reduced world that preserves the paper's ratios:
#: UpdateRange = D/2, ReadRange = D/4, CacheSize = D/8, U = D/20.
PAPER_PARAMS = (
    ModelParameters()
    .with_server(
        broadcast_size=250,
        update_range=125,
        offset=25,
        updates_per_cycle=12,
        transactions_per_cycle=6,
        items_per_bucket=10,
        retention=16,
    )
    .with_client(
        read_range=62,
        ops_per_query=8,
        think_time=1.0,
        cache_size=31,
        max_attempts=8,
    )
)


@pytest.fixture(scope="session")
def paper_profile() -> ExperimentProfile:
    return PAPER_PROFILE


@pytest.fixture(scope="session")
def paper_params() -> ModelParameters:
    return PAPER_PARAMS

"""The server keeps only the versions the air can still ask for.

Without ``keep_history`` the :class:`~repro.server.database.Database`
trims every version chain to the build horizon (DESIGN §17).  Three
nets hold that change to "memory only":

* the chain bound: the versions held stay under ``D`` plus the writes
  visible at the last two cycles, at 200 cycles and at 800 alike;
* a differential: every program and every registry of a run is the
  same with history kept and trimmed, in every mode, and against the
  dict reference store;
* a ``slow`` lane (``REPRO_SCALE_TESTS=1``): 10^4 server cycles with
  the server's traced memory flat.
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc
from collections import Counter

import pytest

from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params, registry_delta, scheme_factory
from repro.cohort.trace import KernellessServer
from repro.config import ModelParameters
from repro.core.control import BroadcastRequirements, ReportSchedule
from repro.runtime import Simulation
from repro.server.broadcast import ProgramBuilder
from repro.server.columnar import ColumnarVersionStore
from repro.shard.runtime import ShardedSimulation
from repro.stats.metrics import MetricsRegistry
from tests.live.program_equality import programs_equal


class _WriteTally:
    """Database observer: committed writes per visibility stamp."""

    def __init__(self) -> None:
        self.at = Counter()

    def note_write(self, version) -> None:
        self.at[version.cycle] += 1


def _mv_server(params: ModelParameters) -> KernellessServer:
    return KernellessServer(
        params,
        BroadcastRequirements(needs_old_versions=True),
        MetricsRegistry(),
        random.Random(params.sim.seed),
    )


def test_chains_stay_under_the_same_bound_at_200_and_800_cycles():
    """``serve-mv-churn``'s server: multiversion overflow, 400 updates a
    cycle over the paper's 1000 items."""
    params = (
        ModelParameters()
        .with_server(updates_per_cycle=400, transactions_per_cycle=40)
        .with_sim(num_cycles=800, warmup_cycles=5, num_clients=1, seed=11)
    )
    server = _mv_server(params)
    database = server.substrate.database
    tally = _WriteTally()
    database.add_observer(tally)
    size = params.server.broadcast_size
    held = {}
    for record in server.cycles():
        # Cycle c is on the air: the commits visible at c have landed.
        c = record.cycle
        bound = size + tally.at[c] + tally.at[c - 1]
        assert database.versions_held <= bound, c
        assert bound <= size + 2 * params.server.updates_per_cycle
        held[c] = database.versions_held
    assert server.backend.cycles_completed == 800
    assert sum(tally.at.values()) > 300_000  # what history would hold
    assert held[200] <= size + 2 * params.server.updates_per_cycle
    assert held[800] <= size + 2 * params.server.updates_per_cycle


# -- keep_history on vs off: identical programs and registries ---------------


@pytest.fixture
def aired(monkeypatch):
    """Every program any builder assembles, with the builder's database."""
    built = []
    build = ProgramBuilder.build

    def recording(self, cycle, outcome):
        program = build(self, cycle, outcome)
        built.append((self.item_state.database, program))
        return program

    monkeypatch.setattr(ProgramBuilder, "build", recording)
    return built


def _assert_same_air(aired, kept, trimmed_run):
    """Run ``kept`` then ``trimmed_run``; their programs and registries
    must be equal, and only the first may have kept history."""
    kept_result = kept()
    kept_air = list(aired)
    aired.clear()
    trimmed_result = trimmed_run()
    trimmed_air = list(aired)
    assert kept_air and len(kept_air) == len(trimmed_air)
    for (kept_db, a), (trimmed_db, b) in zip(kept_air, trimmed_air):
        assert kept_db.keep_history and not trimmed_db.keep_history
        assert programs_equal(a, b), a.cycle
    assert registry_delta(kept_result.metrics, trimmed_result.metrics) == []
    assert trimmed_db.versions_held < kept_db.versions_held


def _params(seed=7, **server):
    params = oracle_params(3, seed, faults=False, num_cycles=40)
    return params.with_server(**server) if server else params


@pytest.mark.parametrize("scheme", ["inval+cache", "sgt+cache", "multiversion+cache"])
@pytest.mark.parametrize("seed", [7, 11])
def test_discrete_run_identical_with_history_trimmed(aired, scheme, seed):
    params = _params(seed)
    factory = scheme_factory(scheme)
    _assert_same_air(
        aired,
        lambda: Simulation(params, factory, keep_history=True).run(),
        lambda: Simulation(params, factory).run(),
    )


@pytest.mark.parametrize("scheme", ["inval+cache", "multiversion+cache"])
def test_cohort_run_equals_discrete_run_with_history(aired, scheme):
    """The cohort path always trims; its air and registry must equal a
    discrete run that kept every version."""
    params = _params()
    factory = scheme_factory(scheme)
    _assert_same_air(
        aired,
        lambda: Simulation(params, factory, keep_history=True).run(),
        lambda: CohortSimulation(params, factory).run(),
    )


@pytest.mark.parametrize("scheme", ["inval+cache", "multiversion+cache"])
def test_two_shards_identical_with_history_trimmed(aired, scheme):
    params = _params()
    factory = scheme_factory(scheme)
    _assert_same_air(
        aired,
        lambda: ShardedSimulation(
            params, factory, num_shards=2, keep_history=True
        ).run(),
        lambda: ShardedSimulation(params, factory, num_shards=2).run(),
    )


def test_subcycle_reports_identical_with_history_trimmed(aired):
    params = _params()
    factory = scheme_factory("versioned-cache")
    reports = ReportSchedule(per_cycle=3)
    _assert_same_air(
        aired,
        lambda: Simulation(
            params, factory, keep_history=True, report_schedule=reports
        ).run(),
        lambda: Simulation(params, factory, report_schedule=reports).run(),
    )


def test_interleaved_2pl_identical_with_history_trimmed(aired):
    params = _params()
    factory = scheme_factory("sgt+cache")
    _assert_same_air(
        aired,
        lambda: Simulation(
            params, factory, keep_history=True, interleaved_server=True
        ).run(),
        lambda: Simulation(params, factory, interleaved_server=True).run(),
    )


def test_clustered_organization_identical_with_history_trimmed(aired):
    params = _params()
    factory = scheme_factory("multiversion/clustered")
    _assert_same_air(
        aired,
        lambda: Simulation(params, factory, keep_history=True).run(),
        lambda: Simulation(params, factory).run(),
    )


def test_retention_300_trimmed_airs_what_the_reference_keeps(
    aired, on_dict_store
):
    """The one store, history trimmed, against the dict reference with
    history kept, 300 cycles deep."""
    params = _params(retention=300)
    factory = scheme_factory("multiversion+cache")

    def on_reference():
        with on_dict_store() as built:
            sim = Simulation(params, factory, keep_history=True)
        assert built == [sim.item_state]
        return sim.run()

    def on_the_store():
        sim = Simulation(params, factory)
        assert isinstance(sim.item_state, ColumnarVersionStore)
        return sim.run()

    _assert_same_air(aired, on_reference, on_the_store)


# -- the scale lane ---------------------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="10^4-cycle server soak lane; set REPRO_SCALE_TESTS=1",
)
def test_ten_thousand_server_cycles_hold_memory_flat():
    """The server half of the soak gate: once the old-version area has
    filled, what the server loop holds does not grow with the run."""
    cycles = 10_000
    params = (
        ModelParameters()
        .with_server(
            broadcast_size=100,
            update_range=50,
            updates_per_cycle=20,
            transactions_per_cycle=5,
            items_per_bucket=10,
            retention=8,
        )
        .with_sim(num_cycles=cycles, warmup_cycles=5, num_clients=1, seed=11)
    )
    server = _mv_server(params)
    traced = {}
    try:
        for record in server.cycles():
            if record.cycle == 2_000:
                tracemalloc.start()
            if record.cycle in (4_000, cycles):
                gc.collect()
                traced[record.cycle] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert server.backend.cycles_completed == cycles
    # 6000 cycles of 20 writes: a chain that kept them would add ~15 MiB.
    assert traced[cycles] - traced[4_000] < 64 * 1024, traced
    assert server.substrate.database.versions_held <= 100 + 2 * 20

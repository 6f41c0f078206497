"""Item store vs dict reference: the differential oracle (DESIGN §14).

The :class:`~repro.server.columnar.ColumnarVersionStore` must be
*bit-identical* to the dict-backed reference
(``tests/server/reference_versions.py``) through every surface a run
touches: the programs the builder assembles cycle by cycle, the metrics
registry of a full simulation (every counter, every (hits, total) ratio,
every (count, exact_sum) sampler), the headline result aggregates, and
the rendered ``repro run`` output.

Tier-1 runs a representative slice of the scheme x seed x fault matrix;
the ``columnar`` CI oracle job sets ``REPRO_COLUMNAR_FULL=1`` to sweep
all 6 schemes x 5 seeds x faults on/off.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cohort.oracle import (
    DEFAULT_SCHEMES,
    DEFAULT_SEEDS,
    oracle_params,
    registry_delta,
    scheme_factory,
)
from repro.core.control import BroadcastRequirements
from repro.runtime import Simulation
from repro.server.broadcast import ProgramBuilder
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database
from repro.server.transactions import TransactionEngine
from tests.server.reference_versions import VersionStore

FULL_MATRIX = os.environ.get("REPRO_COLUMNAR_FULL") == "1"
SEEDS = DEFAULT_SEEDS if FULL_MATRIX else DEFAULT_SEEDS[:2]
#: multiversion/clustered is not in the cohort oracle's default scheme
#: set; the clustered organization has its own builder path, so it
#: rides in this matrix.
SCHEMES = DEFAULT_SCHEMES + ("multiversion/clustered",)


def _store(columnar, database, retention):
    """Builder-level cells construct the store under test directly; the
    whole-run cells get the dict twin through ``on_dict_store``."""
    store = ColumnarVersionStore if columnar else VersionStore
    return store(database, retention=retention)


def _build_pair(organization, incremental, cycles=40, db_size=None):
    """Run the builder loop twice with one shared update workload and
    return the per-cycle program pairs."""
    requirements = (
        BroadcastRequirements(
            needs_old_versions=True, organization=organization
        )
        if organization
        else BroadcastRequirements()
    )
    programs = []
    for columnar in (True, False):
        from repro.config import DEFAULTS

        params = DEFAULTS.server
        if db_size is not None:
            from dataclasses import replace

            params = replace(params, broadcast_size=db_size)
        database = Database(params.broadcast_size)
        store = _store(
            columnar, database, params.retention if organization else 0
        )
        version_store = store if organization else None
        engine = TransactionEngine(
            params,
            database,
            version_store=version_store,
            rng=random.Random(97),
        )
        builder = ProgramBuilder(
            params, store, requirements=requirements, incremental=incremental
        )
        built = []
        outcome = None
        for cycle in range(1, cycles + 1):
            built.append(builder.build(cycle, outcome))
            outcome = engine.run_cycle(cycle)
        programs.append(built)
    return zip(*programs)


def _assert_programs_equal(columnar, dict_ref):
    assert columnar.cycle == dict_ref.cycle
    assert columnar.control == dict_ref.control
    assert columnar.control_slots == dict_ref.control_slots
    assert columnar.index_slots == dict_ref.index_slots
    assert columnar.organization == dict_ref.organization
    assert list(columnar.data_buckets) == list(dict_ref.data_buckets)
    assert list(columnar.overflow_buckets) == list(dict_ref.overflow_buckets)


class TestBuilderPrograms:
    """Program-level bit-identity, organization by organization."""

    @pytest.mark.parametrize("organization", [None, "overflow", "clustered"])
    @pytest.mark.parametrize("incremental", [True, False])
    def test_every_cycle_program_identical(self, organization, incremental):
        for columnar, dict_ref in _build_pair(organization, incremental):
            _assert_programs_equal(columnar, dict_ref)

    def test_incremental_columnar_matches_full_rebuild_dict(self):
        """Cross pairing: incremental columnar vs full-rebuild dict --
        catches compensating errors that a like-for-like pair hides."""
        requirements = BroadcastRequirements(
            needs_old_versions=True, organization="overflow"
        )
        from repro.config import DEFAULTS

        params = DEFAULTS.server
        runs = []
        for columnar, incremental in ((True, True), (False, False)):
            database = Database(params.broadcast_size)
            store = _store(columnar, database, params.retention)
            engine = TransactionEngine(
                params, database, version_store=store, rng=random.Random(5)
            )
            builder = ProgramBuilder(
                params, store, requirements=requirements, incremental=incremental
            )
            built, outcome = [], None
            for cycle in range(1, 31):
                built.append(builder.build(cycle, outcome))
                outcome = engine.run_cycle(cycle)
            runs.append(built)
        for a, b in zip(*runs):
            _assert_programs_equal(a, b)


class TestEndToEndRegistry:
    """Full-run registry equality over the scheme x seed x fault matrix."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_registry_bit_identity(self, scheme, faults, seed, on_dict_store):
        params = oracle_params(
            clients=4, seed=seed, faults=faults, num_cycles=30
        )
        self._assert_same_registry(params, scheme, on_dict_store)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    @pytest.mark.parametrize(
        "scheme", ["multiversion", "multiversion/clustered"]
    )
    def test_retention_300_bit_identity(
        self, scheme, faults, seed, on_dict_store
    ):
        """Past the depth a byte-wide has-old column could count: runs
        keeping 300 cycles of old versions, both organizations."""
        params = oracle_params(
            clients=4, seed=seed, faults=faults, num_cycles=30
        ).with_server(retention=300)
        self._assert_same_registry(params, scheme, on_dict_store)

    @staticmethod
    def _assert_same_registry(params, scheme, on_dict_store):
        sim = Simulation(params, scheme_factory=scheme_factory(scheme))
        assert isinstance(sim.item_state, ColumnarVersionStore)
        results = [sim.run()]
        with on_dict_store() as built:
            sim = Simulation(params, scheme_factory=scheme_factory(scheme))
        assert built == [sim.item_state]
        results.append(sim.run())
        mismatches = registry_delta(results[0].metrics, results[1].metrics)
        assert mismatches == []
        assert results[0].cycles_completed == results[1].cycles_completed
        assert results[0].mean_cycle_slots == results[1].mean_cycle_slots
        assert results[0].committed_attempts == results[1].committed_attempts
        assert results[0].total_attempts == results[1].total_attempts


class TestCliRun:
    """End-to-end through ``repro run``: rendered output equality."""

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--shards", "2"],
            ["--cohorts", "--clients", "32"],
        ],
        ids=["single", "sharded", "cohorts"],
    )
    def test_run_output_identical(self, extra, capsys, on_dict_store):
        from repro.cli import main

        argv = [
            "run",
            "--scheme",
            "multiversion",
            "--cycles",
            "25",
            "--clients",
            "3",
            "--seed",
            "13",
            "--broadcast-size",
            "200",
            "--update-range",
            "100",
            "--read-range",
            "80",
        ] + extra
        assert main(argv) == 0
        columnar_out = capsys.readouterr().out
        with on_dict_store() as built:
            assert main(argv) == 0
        assert built
        assert capsys.readouterr().out == columnar_out


class TestClusteredDirtyDrain:
    """Regression: the clustered organization must drain the item-state
    dirty feed each build -- before the fix it was only consumed by the
    incremental flat/overflow path, so a clustered run grew the dirty
    set without bound."""

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    def test_dirty_feed_bounded_over_clustered_run(self, columnar):
        from repro.config import DEFAULTS

        params = DEFAULTS.server
        database = Database(params.broadcast_size)
        store = _store(columnar, database, params.retention)
        engine = TransactionEngine(
            params, database, version_store=store, rng=random.Random(3)
        )
        builder = ProgramBuilder(
            params,
            store,
            requirements=BroadcastRequirements(
                needs_old_versions=True, organization="clustered"
            ),
        )
        outcome = None
        for cycle in range(1, 41):
            builder.build(cycle, outcome)
            # After every build the feed holds at most the supersedures
            # and evictions of the cycle that committed *after* it.
            assert len(store._dirty) <= 2 * params.updates_per_cycle
            outcome = engine.run_cycle(cycle)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="10^5-item scale lane; set REPRO_SCALE_TESTS=1",
)
class TestScaleLane:
    """The item-count regime the columnar store unlocks: a 10^5-item
    database through the builder loop and an end-to-end run."""

    DB_SIZE = 100_000

    def test_bigdb_programs_identical(self):
        for columnar, dict_ref in _build_pair(
            "overflow", True, cycles=6, db_size=self.DB_SIZE
        ):
            _assert_programs_equal(columnar, dict_ref)

    def test_bigdb_simulation_runs(self):
        params = (
            oracle_params(clients=2, seed=7, faults=False, num_cycles=6)
            .with_server(
                broadcast_size=self.DB_SIZE,
                update_range=5_000,
                offset=1_000,
            )
            .with_client(read_range=4_000)
        )
        sim = Simulation(
            params, scheme_factory=scheme_factory("multiversion+cache")
        )
        result = sim.run()
        assert result.cycles_completed == 6
        assert isinstance(sim.item_state, ColumnarVersionStore)
        assert len(sim.item_state.items) == self.DB_SIZE

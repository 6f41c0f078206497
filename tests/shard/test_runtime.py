"""The sharded runtime as a pytest slice of the shard oracle.

The full matrix (``python -m repro.oracle shard``) runs 178 cells; this
suite pins a representative slice into tier-1: K=1 bit-identity against
the single-channel simulator, clean consistency contracts at K>1 in
both modes, workload apportionment invariants, and the constructor's
pointed rejections.
"""

import pytest

from repro.cohort.oracle import oracle_params, registry_delta, result_delta
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation
from repro.shard.oracle import check_contract_cell, check_identity_cell, contract_params
from repro.shard.runtime import ShardedSimulation
from repro.shard.verify import sharded_violations
from repro.stats import names as metric_names


class TestIdentity:
    @pytest.mark.parametrize(
        "scheme", ["inval", "versioned-cache", "multiversion+cache"]
    )
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
    def test_k1_bit_identical(self, scheme, faults):
        report = check_identity_cell(
            scheme, clients=3, seed=7, faults=faults, num_cycles=20
        )
        assert report["mismatches"] == []

    def test_delta_machinery_detects_divergence(self):
        """The identity check is trustworthy: different seeds disagree."""
        factory = scheme_factory("inval+cache")
        a = Simulation(
            oracle_params(3, seed=7, faults=False, num_cycles=15), factory
        ).run()
        b = ShardedSimulation(
            oracle_params(3, seed=8, faults=False, num_cycles=15),
            factory,
            num_shards=1,
        ).run()
        assert registry_delta(a.metrics, b.metrics) or result_delta(a, b)


class TestContracts:
    @pytest.mark.parametrize("scheme", ["inval+cache", "sgt+cache"])
    @pytest.mark.parametrize("mode", ["local", "epoch"])
    def test_multi_shard_cell_clean(self, scheme, mode):
        report = check_contract_cell(
            scheme,
            shards=2,
            mode=mode,
            fraction=0.5,
            partitioner="hash",
            clients=3,
            seed=11,
            faults=False,
            num_cycles=20,
        )
        assert report["mismatches"] == []
        assert report["committed"] > 0

    def test_cross_shard_traffic_exists_and_verifies(self):
        """The steered workload actually produces cross-shard commits --
        the contracts are exercised, not vacuously true."""
        params = contract_params(clients=4, seed=42, faults=False, num_cycles=25)
        sim = ShardedSimulation(
            params,
            scheme_factory("multiversion+cache"),
            num_shards=4,
            partitioner="range",
            consistency="epoch",
            cross_shard_fraction=0.5,
            keep_history=True,
        )
        result = sim.run()
        cross = result.metrics.get_counter(metric_names.SHARD_CROSS_COMMITS)
        assert cross is not None and cross.value > 0
        assert sharded_violations(sim) == []


class TestTopology:
    def test_per_shard_metrics_and_superframe(self):
        params = contract_params(clients=2, seed=7, faults=False, num_cycles=12)
        sim = ShardedSimulation(
            params, scheme_factory("inval+cache"), num_shards=3
        )
        result = sim.run()
        per_shard = [
            result.metrics.get_sampler(
                metric_names.shard_metric(k, metric_names.BROADCAST_SLOTS)
            )
            for k in range(3)
        ]
        assert all(s is not None and s.count for s in per_shard)
        superframe = result.metrics.get_sampler(metric_names.BROADCAST_SLOTS)
        # The superframe is the max shard program, so its mean is at
        # least every shard's mean and at most their sum.
        assert superframe.mean >= max(s.mean for s in per_shard) - 1e-9
        assert superframe.mean <= sum(s.mean for s in per_shard) + 1e-9

    def test_k1_emits_no_per_shard_metrics(self):
        params = oracle_params(2, seed=7, faults=False, num_cycles=10)
        result = ShardedSimulation(
            params, scheme_factory("inval"), num_shards=1
        ).run()
        assert (
            result.metrics.get_sampler(
                metric_names.shard_metric(0, metric_names.BROADCAST_SLOTS)
            )
            is None
        )

    def test_every_shard_must_own_items(self):
        # 6 items over 3 hash shards leaves one shard with no items --
        # a silent dead channel unless the constructor refuses it.
        params = (
            oracle_params(2, seed=7, faults=False, num_cycles=10)
            .with_server(
                broadcast_size=6,
                update_range=6,
                offset=0,
                updates_per_cycle=2,
            )
            .with_client(read_range=6, cache_size=3)
        )
        with pytest.raises(ValueError, match="shard"):
            ShardedSimulation(
                params, scheme_factory("inval"), num_shards=3
            )

    def test_rejects_resilience(self):
        params = oracle_params(2, seed=7, faults=False, num_cycles=10)
        with pytest.raises(ValueError, match="resilience"):
            ShardedSimulation(
                params.with_resilience(crash_rate=0.1),
                scheme_factory("inval"),
                num_shards=2,
            )

    def test_rejects_unknown_partitioner(self):
        params = oracle_params(2, seed=7, faults=False, num_cycles=10)
        with pytest.raises(ValueError, match="partitioner"):
            ShardedSimulation(
                params, scheme_factory("inval"), num_shards=2,
                partitioner="modulo",
            )

    def test_rejects_unknown_consistency(self):
        params = oracle_params(2, seed=7, faults=False, num_cycles=10)
        with pytest.raises(ValueError, match="consistency"):
            ShardedSimulation(
                params, scheme_factory("inval"), num_shards=2,
                consistency="linearizable",
            )

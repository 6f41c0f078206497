"""Tests for the auxiliary experiment modules (tuning, retention) and
the harness entry point."""

import pytest

from repro.config import ModelParameters
from repro.experiments import retention, tuning
from tests.helpers import SMALL_WORLD, TINY_PROFILE as TINY


class TestTuningExperiment:
    def test_tuning_time_constant_across_m(self):
        sweep = tuning.run(params=SMALL_WORLD, m_sweep=(1, 2, 4))
        tunings = sweep.series["tuning_time"]
        assert max(tunings) - min(tunings) < 1e-9
        assert tunings[0] <= 6

    def test_indexed_tuning_beats_baseline(self):
        # Air indexing pays off once the broadcast has enough buckets for
        # "listen to everything" to be expensive: the paper-scale default
        # (100 data buckets) is the right yardstick.
        sweep = tuning.run(params=ModelParameters(), m_sweep=(1,))
        assert sweep.series["tuning_time"][0] < sweep.series["no_index_tuning"][0] / 5

    def test_access_has_interior_optimum_or_monotone_edge(self):
        sweep = tuning.run(params=SMALL_WORLD, m_sweep=(1, 3, 10))
        access = sweep.series["access_time"]
        # m=3 (near sqrt(D/i)) should not be the worst of the three.
        assert access[1] <= max(access[0], access[2])


class TestRetentionExperiment:
    def test_reduced_sweep_shapes(self):
        params = SMALL_WORLD.with_client(ops_per_query=6, think_time=1.0)
        sweep = retention.run(
            profile=TINY, params=params, retention_sweep=(1, 16)
        )
        aborts = sweep.series["abort_rate"]
        slots = sweep.series["slots_per_cycle"]
        assert aborts[0] >= aborts[1]
        assert aborts[1] == 0.0
        assert slots[1] > slots[0]


class TestHarnessEntryPoint:
    def test_main_module_importable(self):
        import repro.experiments.__main__ as harness

        assert callable(harness.main)

    def test_figure_mains_run_on_tiny_profiles(self, capsys):
        # The per-figure main() functions are the documented CLI; check
        # one analytic and one simulated main end-to-end.
        from repro.experiments import fig7

        fig7.main()
        out = capsys.readouterr().out
        assert "Figure 7a" in out and "Figure 7b" in out

        tuning.main()
        out = capsys.readouterr().out
        assert "air indexing" in out
        assert "m* =" in out

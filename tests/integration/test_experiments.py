"""Tests for the experiment harness itself (runner, render, figures on a
tiny profile) and the paper's expected curve shapes on reduced sweeps."""

import math

import pytest

from repro.experiments import fig5, fig6, fig7, fig8, scalability, table1
from repro.experiments.render import render_sweep, render_table, sweep_to_csv
from repro.experiments.runner import (
    ExperimentProfile,
    PointResult,
    SweepResult,
    run_point,
)
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory
from tests.helpers import (
    SMALL_WORLD,
    TINY_PROFILE as TINY,
    monotone_decreasing,
    monotone_increasing,
)


class TestRunner:
    def test_run_point_merges_seeds(self):
        profile = ExperimentProfile(
            num_cycles=25, warmup_cycles=3, num_clients=2, seeds=(1, 2)
        )
        single = run_point(
            SMALL_WORLD, scheme_factory("inval+cache"),
            ExperimentProfile(25, 3, 2, (1,)), label="x",
        )
        merged = run_point(
            SMALL_WORLD, scheme_factory("inval+cache"), profile, label="x"
        )
        assert merged.attempts > single.attempts
        assert 0.0 <= merged.abort_rate <= 1.0

    def test_point_result_empty_is_nan(self):
        point = PointResult(scheme="x")
        assert math.isnan(point.abort_rate)
        assert math.isnan(point.mean_latency_cycles)

    def test_scheme_factory_unknown_name(self):
        with pytest.raises(KeyError, match="Unknown scheme"):
            scheme_factory("nope")

    def test_all_registered_factories_construct(self):
        for name, factory in SCHEME_FACTORIES.items():
            scheme = factory()
            assert scheme.label


class TestSweepResult:
    def make(self):
        sweep = SweepResult(name="n", x_label="x", xs=[1.0, 2.0, 3.0], y_label="y")
        sweep.series["up"] = [0.1, 0.2, 0.3]
        sweep.series["down"] = [0.3, 0.2, 0.1]
        return sweep

    def test_monotone_helpers(self):
        sweep = self.make()
        assert monotone_increasing(sweep, "up")
        assert not monotone_increasing(sweep, "down")
        assert monotone_decreasing(sweep, "down")

    def test_y_lookup(self):
        assert self.make().y("up", 2.0) == 0.2

    def test_render_and_csv(self):
        sweep = self.make()
        text = render_sweep(sweep)
        assert "up" in text and "down" in text and "x" in text
        csv = sweep_to_csv(sweep)
        lines = csv.strip().splitlines()
        assert lines[0] == "x,up,down"
        assert len(lines) == 4

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["33", "4"]], title="t")
        assert out.startswith("t\n")
        assert "--" in out


class TestFigure7:
    def test_vs_span_shapes(self):
        sweep = fig7.run_vs_span()
        # Multiversion size grows with span; invalidation-only is flat.
        assert monotone_increasing(sweep, "multiversion_overflow")
        first = sweep.series["invalidation_only"][0]
        assert all(v == first for v in sweep.series["invalidation_only"])

    def test_vs_updates_shapes(self):
        sweep = fig7.run_vs_updates()
        for scheme in sweep.series:
            assert monotone_increasing(sweep, scheme), scheme
        # Ordering at every point: inval < mv-caching < sgt < overflow.
        for i in range(len(sweep.xs)):
            assert (
                sweep.series["invalidation_only"][i]
                < sweep.series["multiversion_caching"][i]
                < sweep.series["sgt"][i]
                < sweep.series["multiversion_overflow"][i]
            )


class TestReducedSimulationFigures:
    """Tiny-profile runs of the simulated figures: smoke + shape."""

    def test_fig5_left_reduced(self):
        sweep = fig5.run_left(
            profile=TINY,
            params=SMALL_WORLD,
            schemes=("inval", "sgt"),
            ops_sweep=(2, 6),
        )
        assert set(sweep.series) == {"inval", "sgt"}
        # Longer queries abort at least as much (generous tolerance on a
        # tiny sample).
        assert sweep.y("inval", 6) >= sweep.y("inval", 2) - 0.15

    def test_fig5_right_reduced(self):
        sweep = fig5.run_right(
            profile=TINY,
            params=SMALL_WORLD,
            schemes=("inval",),
            offset_sweep=(0, 40),
        )
        # Max overlap aborts more than shifted patterns.
        assert sweep.y("inval", 0) >= sweep.y("inval", 40) - 0.1

    def test_fig6_reduced(self):
        sweep = fig6.run(
            profile=TINY,
            params=SMALL_WORLD,
            schemes=("inval",),
            update_sweep=(5, 25),
        )
        assert sweep.y("inval", 25) >= sweep.y("inval", 5) - 0.1

    def test_fig8_left_reduced(self):
        sweep = fig8.run_left(
            profile=TINY,
            params=SMALL_WORLD,
            schemes=("inval+cache",),
            ops_sweep=(2, 6),
        )
        lat2 = sweep.y("inval+cache", 2)
        lat6 = sweep.y("inval+cache", 6)
        assert math.isnan(lat2) or math.isnan(lat6) or lat6 >= lat2 - 0.5

    def test_scalability_reduced(self):
        sweep = scalability.run(
            profile=TINY,
            params=SMALL_WORLD,
            scheme="inval+cache",
            client_sweep=(2, 6),
        )
        rates = sweep.series["abort_rate"]
        assert rates[0] == pytest.approx(rates[1], abs=0.25)

    def test_table1_reduced(self):
        result = table1.run(profile=TINY, params=SMALL_WORLD)
        text = result.render()
        assert "concurrency" in text
        assert "multiversion" in text
        # Multiversion accepts everything; its acceptance tops the table.
        mv = result.connected["multiversion"].acceptance_rate
        inval = result.connected["inval"].acceptance_rate
        assert mv >= inval
        # Invalidation-only is the most current scheme.
        assert result.connected["inval"].mean_currency_lag == 0.0

"""Figure 8: latency of committed queries, in broadcast cycles.

Left panel: latency vs. operations per query.  Expected: latency grows
roughly with half a cycle per (uncached) read; multiversion-overflow pays
extra because old-version reads wait for the end of the bcast; caching
cuts latency sharply.  (As the paper notes, measured values deviate from
the naive ops/2 expectation because only *accepted* transactions are
counted.)

Right panel: multiversion (overflow organization) latency vs. the offset.
With small overlap fewer reads need an old version, so the latency
penalty shrinks.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.fig5 import OFFSET_SWEEP, OPS_SWEEP, _retention_for
from repro.experiments.render import render_sweep
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    SweepPlan,
    SweepResult,
    run_plan,
)
from repro.experiments.schemes import LATENCY_SCHEMES


def plan_left(
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(LATENCY_SCHEMES),
    ops_sweep: Sequence[int] = OPS_SWEEP,
) -> SweepPlan:
    plan = SweepPlan(
        name="Figure 8 (left): latency vs. operations per query",
        x_label="ops/query",
        xs=[float(x) for x in ops_sweep],
        y_label="latency (cycles)",
    )
    for name in schemes:
        for ops in ops_sweep:
            point_params = params.with_client(ops_per_query=ops).with_server(
                retention=_retention_for(ops)
            )
            plan.add(
                name, point_params, ops, series=name, measure="mean_latency_cycles"
            )
    return plan


def run_left(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(LATENCY_SCHEMES),
    ops_sweep: Sequence[int] = OPS_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(
        plan_left(params, schemes, ops_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def plan_right(
    params: ModelParameters = DEFAULTS,
    offset_sweep: Sequence[int] = OFFSET_SWEEP,
) -> SweepPlan:
    plan = SweepPlan(
        name="Figure 8 (right): multiversion latency vs. offset",
        x_label="offset",
        xs=[float(x) for x in offset_sweep],
        y_label="latency (cycles)",
    )
    for name in ("multiversion", "multiversion+cache"):
        for offset in offset_sweep:
            plan.add(
                name,
                params.with_server(offset=offset),
                offset,
                series=name,
                measure="mean_latency_cycles",
            )
    return plan


def run_right(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    offset_sweep: Sequence[int] = OFFSET_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(
        plan_right(params, offset_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
) -> None:
    common = dict(jobs=jobs, verbose=verbose)
    print(render_sweep(run_left(profile, **common), precision=2))
    print(render_sweep(run_right(profile, **common), precision=2))


if __name__ == "__main__":
    main()

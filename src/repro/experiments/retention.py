"""V-multiversion ablation (Section 3.2).

A ``V``-multiversion server broadcasts only ``V`` old versions -- fewer
than the maximum transaction span ``S`` -- so long transactions "proceed
on their own risk".  This sweep measures the risk: abort rate and the
broadcast-size cost as ``V`` grows from 1 to past the typical span,
quantifying the bandwidth/concurrency dial the paper describes ("V can
be adapted depending on ... the allowable bandwidth, feedback from
clients, or update rate at the server").
"""

from __future__ import annotations

from typing import Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_sweep
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    PointSpec,
    SweepPlan,
    SweepResult,
    run_plan,
)

RETENTION_SWEEP: Sequence[int] = (1, 2, 4, 8, 16, 24)


def plan(
    params: ModelParameters = DEFAULTS,
    retention_sweep: Sequence[int] = RETENTION_SWEEP,
) -> SweepPlan:
    result = SweepPlan(
        name="V-multiversion: abort rate and bcast cost vs. retained versions",
        x_label="V",
        xs=[float(v) for v in retention_sweep],
        y_label="abort rate / slots per cycle",
    )
    for retention in retention_sweep:
        result.points.append(
            PointSpec(
                scheme="multiversion",
                params=params.with_server(retention=retention),
                x=float(retention),
                label=f"V={retention}",
                measures=(
                    ("abort_rate", "abort_rate"),
                    ("slots_per_cycle", "mean_cycle_slots"),
                ),
            )
        )
    return result


def run(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    retention_sweep: Sequence[int] = RETENTION_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(
        plan(params, retention_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
) -> None:
    print(
        render_sweep(
            run(profile, jobs=jobs, verbose=verbose),
            precision=3,
        )
    )


if __name__ == "__main__":
    main()

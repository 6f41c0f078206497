"""Figure 5: abort rate vs. query size (left) and vs. offset (right).

Left panel: the number of read operations per query is swept; every
aborting scheme gets worse with longer queries, SGT+cache stays lowest,
and the versioned cache is competitive for short queries (the paper
quotes "less than 30 reads").

Right panel: the offset between the client-read and the server-update
Zipf patterns is swept; abort rates are highest at offset 0 (maximal
overlap) and fall as the patterns diverge.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_sweep
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    SweepPlan,
    SweepResult,
    run_plan,
)
from repro.experiments.schemes import ABORTING_SCHEMES

#: Operations-per-query values swept in the left panel.
OPS_SWEEP: Sequence[int] = (4, 8, 16, 24, 32, 48)
#: Offsets swept in the right panel (the paper's 0-250 range).
OFFSET_SWEEP: Sequence[int] = (0, 50, 100, 150, 200, 250)


def _retention_for(ops: int) -> int:
    """S must cover the maximum span (Section 3.2); scale it with the
    query size so multiversion runs do not run "at their own risk"."""
    return max(16, ops + 8)


def plan_left(
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    ops_sweep: Sequence[int] = OPS_SWEEP,
) -> SweepPlan:
    plan = SweepPlan(
        name="Figure 5 (left): abort rate vs. operations per query",
        x_label="ops/query",
        xs=[float(x) for x in ops_sweep],
        y_label="abort rate",
    )
    for name in schemes:
        for ops in ops_sweep:
            point_params = params.with_client(ops_per_query=ops).with_server(
                retention=_retention_for(ops)
            )
            plan.add(name, point_params, ops, series=name)
    return plan


def run_left(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    ops_sweep: Sequence[int] = OPS_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    """Abort rate vs. number of operations per query."""
    return run_plan(
        plan_left(params, schemes, ops_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def plan_right(
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    offset_sweep: Sequence[int] = OFFSET_SWEEP,
) -> SweepPlan:
    plan = SweepPlan(
        name="Figure 5 (right): abort rate vs. offset",
        x_label="offset",
        xs=[float(x) for x in offset_sweep],
        y_label="abort rate",
    )
    for name in schemes:
        for offset in offset_sweep:
            plan.add(name, params.with_server(offset=offset), offset, series=name)
    return plan


def run_right(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    offset_sweep: Sequence[int] = OFFSET_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    """Abort rate vs. offset between read and update patterns."""
    return run_plan(
        plan_right(params, schemes, offset_sweep),
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
    print(render_sweep(run_left(profile, **common)))
    print(render_sweep(run_right(profile, **common)))


if __name__ == "__main__":
    main()

"""Figure 6: abort rate vs. the number of updates per cycle.

Sweeping ``U`` from 50 to 500 (the paper's range).  Expected shape: every
scheme's abort rate grows with server activity; the SGT advantage over
invalidation-only shrinks as the serialization graph gets denser, and the
versioned cache overtakes SGT once updates exceed roughly a quarter of
the broadcast size.
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

#: Updates-per-cycle values swept (the paper's 50-500).
UPDATE_SWEEP: Sequence[int] = (50, 125, 250, 375, 500)


def plan(
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    update_sweep: Sequence[int] = UPDATE_SWEEP,
) -> SweepPlan:
    result = SweepPlan(
        name="Figure 6: abort rate vs. updates per cycle",
        x_label="updates",
        xs=[float(u) for u in update_sweep],
        y_label="abort rate",
    )
    for name in schemes:
        for updates in update_sweep:
            result.add(
                name,
                params.with_server(updates_per_cycle=updates),
                updates,
                series=name,
            )
    return result


def run(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = tuple(ABORTING_SCHEMES),
    update_sweep: Sequence[int] = UPDATE_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(
        plan(params, schemes, update_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
) -> None:
    print(render_sweep(run(profile, jobs=jobs, verbose=verbose)))


if __name__ == "__main__":
    main()

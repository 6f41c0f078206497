"""Resilience sweep: what does a retry policy buy under channel loss?

The faults experiment shows the *cost* of an imperfect channel; this one
compares how much of it each retry policy claws back.  The seed's
immediate-retry loop burns attempts inside dead or contended cycles, so
under loss its query completion rate collapses faster than the abort
rate alone explains; capped backoff and cause-aware scheduling spread
the same ``max_attempts`` budget across cycles where they can succeed.

Two artifacts:

* ``results/resilience_policies.csv`` -- query completion rate vs. slot
  loss, one series per policy (fixed scheme, the invalidation cache);
* a recovery table at a fixed crash rate: crashes, checkpoint restores,
  and mean time-to-recover per scheme, demonstrating the crash-restart
  protocols end to end (w-window retransmission on, so incremental
  catch-up actually engages).

    python -m repro.experiments resilience [--quick]
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_sweep, render_table
from repro.experiments.runner import (
    Cell,
    CellOptions,
    ExperimentProfile,
    FULL_PROFILE,
    SweepPlan,
    SweepResult,
    run_cells,
    run_plan,
    write_sweep_csv,
)
from repro.stats import names as metric_names

#: Per-slot loss probabilities swept.
LOSS_SWEEP: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2)

#: The policies compared; ``immediate`` is the seed behaviour.
POLICIES: Sequence[str] = ("immediate", "backoff", "cause-aware")

#: Scheme held fixed across the policy sweep.
SWEEP_SCHEME = "inval+cache"

#: Schemes in the crash-recovery table (one per family).
RECOVERY_SCHEMES: Sequence[str] = (
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion",
    "mv-caching",
)

RESULTS_DIR = Path("results")


def policy_params(params: ModelParameters, policy: str) -> ModelParameters:
    """``params`` with one retry policy enabled (defaults otherwise)."""
    return params.with_resilience(retry_policy=policy)


def plan(
    params: ModelParameters = DEFAULTS,
    policies: Sequence[str] = POLICIES,
    loss_sweep: Sequence[float] = LOSS_SWEEP,
) -> SweepPlan:
    result = SweepPlan(
        name="Resilience: query completion vs. slot loss per retry policy",
        x_label="slot_loss",
        xs=[float(p) for p in loss_sweep],
        y_label="query completion rate",
    )
    for policy in policies:
        for p in loss_sweep:
            result.add(
                SWEEP_SCHEME,
                policy_params(params.with_faults(slot_loss=p), policy),
                p,
                series=policy,
                measure="query_completion_rate",
            )
    return result


def run_policy_sweep(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(plan(params), profile, jobs=jobs, verbose=verbose)


def recovery_rows(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = RECOVERY_SCHEMES,
    jobs: int = 1,
):
    """Crash-recovery summary: one row per scheme at a fixed crash rate."""
    crashy = params.with_resilience(
        retry_policy="cause-aware",
        checkpoint_interval=5,
        crash_rate=0.05,
        crash_length=2.0,
        catchup_window=8,
    )
    options = CellOptions(report_window=8)
    cells = [
        Cell(
            scheme=name,
            params=profile.apply(crashy, profile.seeds[0]),
            seed=profile.seeds[0],
            options=options,
        )
        for name in schemes
    ]
    rows = []
    for result in run_cells(cells, jobs):
        counters = {
            counter: (result.metrics.get_counter(counter).value
                      if result.metrics.get_counter(counter)
                      else 0)
            for counter in metric_names.RESILIENCE_COUNTERS
        }
        ttr = result.metrics.get_sampler(metric_names.TIME_TO_RECOVER_CYCLES)
        rows.append(
            [
                result.scheme,
                str(counters[metric_names.RESILIENCE_CRASHES]),
                str(counters[metric_names.RESILIENCE_CHECKPOINT_SAVES]),
                str(counters[metric_names.RESILIENCE_CHECKPOINT_RESTORES]),
                str(counters[metric_names.RESILIENCE_RETRIES]),
                f"{ttr.mean:.1f}" if ttr is not None and ttr.count else "-",
            ]
        )
    return rows


def write_csv(
    sweep: SweepResult,
    filename: str = "resilience_policies.csv",
    profile: Optional[ExperimentProfile] = None,
    params: ModelParameters = DEFAULTS,
) -> Path:
    return write_sweep_csv(
        sweep,
        str(RESULTS_DIR / filename),
        params=params,
        profile=profile,
        extra={
            "loss_sweep": list(LOSS_SWEEP),
            "policies": list(POLICIES),
            "scheme": SWEEP_SCHEME,
        },
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
) -> None:
    sweep = run_policy_sweep(profile, jobs=jobs, verbose=verbose)
    print(render_sweep(sweep))
    path = write_csv(sweep, profile=profile)
    print(f"Wrote {path}\n")
    headers = [
        "scheme",
        "crashes",
        "ckpt_saves",
        "ckpt_restores",
        "retries",
        "ttr_cycles",
    ]
    rows = recovery_rows(profile, jobs=jobs)
    print(
        render_table(
            headers,
            rows,
            title="Crash recovery at crash_rate=0.05 (first seed, w-window 8)",
        )
    )


if __name__ == "__main__":
    main()

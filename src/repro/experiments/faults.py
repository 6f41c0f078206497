"""Fault sweep: abort rate vs. bucket-loss probability per scheme.

The paper's performance model assumes a perfect downstream channel; this
experiment asks how gracefully each processing scheme degrades when the
air interface loses buckets (:mod:`repro.faults`).  Every scheme stays
*correct* under loss -- the oracle suite pins that down -- so the whole
cost of an imperfect channel shows up in these performance curves:

* the invalidation-driven schemes abort more as loss grows, because a
  lost control segment dooms every active query (the conservative
  degrade of §5.2.2 applied to faults);
* multiversion broadcast keeps accepting transactions but pays latency,
  since lost buckets force a retry on the next repetition or cycle.

Writes ``results/faults_abort_vs_loss.csv`` (one column per scheme) plus
a fault-counter summary so runs can be compared across revisions.

    python -m repro.experiments faults [--quick]
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_sweep, render_table
from repro.experiments.runner import (
    Cell,
    ExperimentProfile,
    FULL_PROFILE,
    SweepPlan,
    SweepResult,
    run_cells,
    run_plan,
    write_sweep_csv,
)
from repro.faults.presets import get_preset
from repro.stats.metrics import FAULT_COUNTERS

#: Per-slot loss probabilities swept (0 = the perfect-channel baseline).
LOSS_SWEEP: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)

#: The four processing schemes of the paper, one per family.
FAULT_SCHEMES: Sequence[str] = (
    "inval",
    "versioned-cache",
    "multiversion",
    "mv-caching",
)

#: Where the CSV artifacts land, relative to the working directory.
RESULTS_DIR = Path("results")

#: Severity multipliers swept when a named preset is selected.
SEVERITY_SWEEP: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)


def plan(
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = FAULT_SCHEMES,
    loss_sweep: Sequence[float] = LOSS_SWEEP,
) -> SweepPlan:
    result = SweepPlan(
        name="Faults: abort rate vs. slot loss probability",
        x_label="slot_loss",
        xs=[float(p) for p in loss_sweep],
        y_label="abort rate",
    )
    for name in schemes:
        for p in loss_sweep:
            result.add(name, params.with_faults(slot_loss=p), p, series=name)
    return result


def plan_preset(
    preset_name: str,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = FAULT_SCHEMES,
    severities: Sequence[float] = SEVERITY_SWEEP,
) -> SweepPlan:
    """Abort rate vs. severity of one named scenario preset.

    The preset pins the fault seed, so every scheme and every severity
    faces the *same* weather pattern, only denser -- the x axis isolates
    scenario intensity instead of mixing impairment kinds.
    """
    preset = get_preset(preset_name)
    result = SweepPlan(
        name=f"Faults: abort rate vs. severity of preset {preset.name!r}",
        x_label="severity",
        xs=[float(s) for s in severities],
        y_label="abort rate",
    )
    for name in schemes:
        for severity in severities:
            result.add(
                name, preset.apply(params, severity), severity, series=name
            )
    return result


def run_loss_sweep(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = FAULT_SCHEMES,
    loss_sweep: Sequence[float] = LOSS_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    """Abort rate vs. independent per-slot loss probability.

    Slot loss hits control slots too, so higher loss also means more
    whole cycles missed; the fault seed is pinned per simulation seed, so
    every scheme faces the *same* loss schedule at each x.
    """
    return run_plan(
        plan(params, schemes, loss_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def fault_counter_rows(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    schemes: Sequence[str] = FAULT_SCHEMES,
    slot_loss: float = 0.1,
    jobs: int = 1,
):
    """One summary row of fault counters per scheme at a fixed loss rate."""
    cells = [
        Cell(
            scheme=name,
            params=profile.apply(
                params.with_faults(slot_loss=slot_loss), profile.seeds[0]
            ),
            seed=profile.seeds[0],
        )
        for name in schemes
    ]
    rows = []
    for result in run_cells(cells, jobs):
        summary = result.metrics.fault_summary()
        ratio = result.metrics.get_ratio("attempt.committed")
        abort_rate = ratio.complement if ratio and ratio.total else 0.0
        rows.append(
            [result.scheme]
            + [str(summary[counter]) for counter in FAULT_COUNTERS]
            + [f"{abort_rate:.3f}"]
        )
    return rows


def write_csv(
    sweep: SweepResult,
    filename: str = "faults_abort_vs_loss.csv",
    profile: Optional[ExperimentProfile] = None,
    params: ModelParameters = DEFAULTS,
) -> Path:
    return write_sweep_csv(
        sweep,
        str(RESULTS_DIR / filename),
        params=params,
        profile=profile,
        extra={"loss_sweep": list(LOSS_SWEEP), "schemes": list(FAULT_SCHEMES)},
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
    preset: Optional[str] = None,
) -> None:
    if preset is not None:
        sweep = run_plan(
            plan_preset(preset),
            profile,
            jobs=jobs,
            verbose=verbose,
        )
        print(render_sweep(sweep))
        path = write_sweep_csv(
            sweep,
            str(RESULTS_DIR / f"faults_preset_{preset}.csv"),
            params=DEFAULTS,
            profile=profile,
            extra={
                "preset": preset,
                "severities": list(SEVERITY_SWEEP),
                "schemes": list(FAULT_SCHEMES),
            },
        )
        print(f"Wrote {path}\n")
        return
    sweep = run_loss_sweep(profile, jobs=jobs, verbose=verbose)
    print(render_sweep(sweep))
    path = write_csv(sweep, profile=profile)
    print(f"Wrote {path}\n")
    headers = ["scheme"] + [c.removeprefix("fault.") for c in FAULT_COUNTERS] + [
        "abort_rate"
    ]
    rows = fault_counter_rows(profile, jobs=jobs)
    print(
        render_table(
            headers, rows, title="Fault counters at slot_loss=0.1 (first seed)"
        )
    )


if __name__ == "__main__":
    main()

"""The scalability claim: client performance independent of client count.

All protocols are client-local -- no backchannel exists -- so the abort
rate and latency a client observes must not depend on how many other
clients listen to the same broadcast.  This experiment sweeps the number
of concurrent clients and reports per-client quality metrics, which
should stay flat (up to sampling noise).

Two sweep modes exist:

* the *discrete* sweep (the default) runs the event-driven simulation to
  a few dozen clients -- enough to demonstrate flatness, bounded by the
  kernel's per-client cost;
* the *cohort* sweep (``--cohorts``) runs :class:`repro.cohort.
  CohortSimulation` to 10^5+ clients on one core, extending the same
  per-scheme abort/latency curves by three orders of magnitude (the
  differential oracle guarantees the two engines agree exactly at small
  N, so the curves are directly comparable).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_sweep
from repro.experiments.runner import (
    ExperimentProfile,
    FULL_PROFILE,
    PointSpec,
    QUICK_PROFILE,
    SweepPlan,
    SweepResult,
    run_plan,
)

CLIENT_SWEEP: Sequence[int] = (1, 2, 4, 8, 16, 32)

#: Cohort-mode population sweep: to 10^5 clients (10^6 is the same code
#: path, linear in N -- run it off-line, not in CI).
COHORT_CLIENT_SWEEP: Sequence[int] = (100, 1_000, 10_000, 100_000)
COHORT_SCHEMES: Sequence[str] = (
    "inval+cache",
    "sgt+cache",
    "multiversion+cache",
)


def plan(
    params: ModelParameters = DEFAULTS,
    scheme: str = "sgt+cache",
    client_sweep: Sequence[int] = CLIENT_SWEEP,
) -> SweepPlan:
    result = SweepPlan(
        name=f"Scalability: per-client quality vs. client count ({scheme})",
        x_label="clients",
        xs=[float(n) for n in client_sweep],
        y_label="abort rate / latency",
    )
    for clients in client_sweep:
        result.points.append(
            PointSpec(
                scheme=scheme,
                params=params,
                x=float(clients),
                label=scheme,
                measures=(
                    ("abort_rate", "abort_rate"),
                    ("latency_cycles", "mean_latency_cycles"),
                ),
                clients=clients,
            )
        )
    return result


def run(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    scheme: str = "sgt+cache",
    client_sweep: Sequence[int] = CLIENT_SWEEP,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    return run_plan(
        plan(params, scheme, client_sweep),
        profile,
        jobs=jobs,
        verbose=verbose,
    )


def run_cohorts(
    profile: ExperimentProfile = FULL_PROFILE,
    schemes: Optional[Sequence[str]] = None,
    client_sweep: Optional[Sequence[int]] = None,
    cohort_size: int = 4096,
    num_cycles: Optional[int] = None,
    verbose: bool = False,
) -> List[Dict]:
    """Per-scheme abort/latency curves over huge populations.

    Uses the oracle's small-but-nontrivial workload (the differential
    oracle pins cohort == discrete on exactly that workload) with a
    cycle count decoupled from the discrete profiles: population scaling
    is the axis here, so a dozen post-warmup cycles over 10^5 clients
    already aggregates millions of attempts.  Single-core by design --
    the engine's point is that one core suffices.
    """
    from repro.cohort import CohortSimulation
    from repro.cohort.oracle import oracle_params
    from repro.experiments.schemes import scheme_factory

    quick = profile is QUICK_PROFILE
    if schemes is None:
        schemes = COHORT_SCHEMES
    if client_sweep is None:
        # The quick profile stops at 10^4 so smoke runs stay sub-minute;
        # the full profile carries the curves to the 10^5 target.
        client_sweep = (
            tuple(n for n in COHORT_CLIENT_SWEEP if n <= 10_000)
            if quick
            else COHORT_CLIENT_SWEEP
        )
    if num_cycles is None:
        num_cycles = 8 if quick else 12
    seed = tuple(profile.seeds)[0]
    rows: List[Dict] = []
    for scheme in schemes:
        for clients in client_sweep:
            params = oracle_params(
                clients, seed, faults=False, num_cycles=num_cycles
            )
            started = time.perf_counter()
            sim = CohortSimulation(
                params,
                scheme_factory(scheme),
                cohort_size=cohort_size,
            )
            result = sim.run()
            elapsed = time.perf_counter() - started
            rows.append(
                {
                    "scheme": scheme,
                    "clients": clients,
                    "seed": seed,
                    "num_cycles": num_cycles,
                    "abort_rate": result.abort_rate,
                    "latency_cycles": result.mean_latency_cycles,
                    "total_attempts": result.total_attempts,
                    "seconds": elapsed,
                    "clients_per_sec": clients / elapsed if elapsed else 0.0,
                    "steps": sim.steps,
                }
            )
            if verbose:
                print(
                    f"  {scheme:<20} N={clients:<7} {elapsed:7.1f}s "
                    f"({clients / elapsed:8.0f} clients/s)"
                )
    return rows


def render_cohort_rows(rows: Sequence[Dict]) -> str:
    lines = [
        "Scalability (cohort mode): per-client quality vs. population",
        f"{'scheme':<22}{'clients':>9}{'abort':>9}{'latency':>9}"
        f"{'attempts':>10}{'wall s':>9}{'clients/s':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['scheme']:<22}{row['clients']:>9}"
            f"{row['abort_rate']:>9.3f}{row['latency_cycles']:>9.3f}"
            f"{row['total_attempts']:>10}{row['seconds']:>9.1f}"
            f"{row['clients_per_sec']:>11.0f}"
        )
    return "\n".join(lines)


def cohort_bench_payload(
    rows: Sequence[Dict], cohort_size: int = 4096
) -> Dict:
    """The committed ``results/BENCH_cohort.json`` shape."""
    return {
        "bench": "cohort-scalability",
        "cohort_size": cohort_size,
        "max_clients": max((row["clients"] for row in rows), default=0),
        "rows": list(rows),
    }


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
    cohorts: bool = False,
    cohort_out: Optional[str] = None,
) -> None:
    if cohorts:
        rows = run_cohorts(profile, verbose=verbose)
        print(render_cohort_rows(rows))
        if cohort_out:
            payload = cohort_bench_payload(rows)
            Path(cohort_out).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {cohort_out}")
        return
    print(
        render_sweep(
            run(profile, jobs=jobs, verbose=verbose),
            precision=3,
        )
    )


if __name__ == "__main__":
    main()

"""Run the experiment harness: every figure and table, or one by name.

    python -m repro.experiments                  # everything, full profile
    python -m repro.experiments --quick          # everything, reduced profile
    python -m repro.experiments faults           # one experiment by name
    python -m repro.experiments fig5 --jobs 4    # shard cells over 4 workers
    python -m repro.experiments --jobs 0 --cache results/.cells
                                                 # one worker per CPU, resumable
    python -m repro.experiments --check --jobs 4 # parallel-vs-serial oracle

``--jobs`` shards every sweep's (scheme, x, seed) cells over worker
processes (see :mod:`repro.experiments.parallel`); output is
byte-identical to the serial run.  ``--cache DIR`` makes sweeps
resumable: finished cells are stored on disk and a re-run only
simulates the missing ones.  ``--check`` runs the determinism oracle
(:func:`repro.experiments.parallel.check`) instead.  ``repro experiments``
is this same parser: :mod:`repro.cli` registers :func:`add_arguments`
and dispatches to :func:`run`.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.experiments import FULL_PROFILE, QUICK_PROFILE
from repro.experiments import (
    faults,
    fig5,
    fig6,
    fig7,
    fig8,
    parallel,
    resilience,
    retention,
    scalability,
    sharding,
    table1,
)
from repro.faults.presets import preset_names

#: Name -> module with a ``main(profile, ...)`` entry point, in run order.
EXPERIMENTS = {
    "fig7": fig7,
    "fig5": fig5,
    "fig6": fig6,
    "fig8": fig8,
    "table1": table1,
    "scalability": scalability,
    "retention": retention,
    "faults": faults,
    "resilience": resilience,
    "sharding": sharding,
}


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the experiment flags on ``parser``; returns it."""
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all; known: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced profile for smoke runs"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep (0 = one per CPU, default 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="resumable cell cache directory (restart a killed sweep for free)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="per-cell progress and wall/cpu speedup lines on stderr",
    )
    parser.add_argument(
        "--preset",
        default=None,
        choices=preset_names(),
        metavar="NAME",
        help=(
            "named fault scenario for the faults experiment "
            f"(known: {', '.join(preset_names())})"
        ),
    )
    parser.add_argument(
        "--cohorts",
        action="store_true",
        help=(
            "scalability experiment only: sweep the cohort engine to "
            "10^5 clients instead of the discrete kernel"
        ),
    )
    parser.add_argument(
        "--cohort-out",
        default=None,
        metavar="FILE",
        help="with --cohorts: also write the sweep as a bench JSON",
    )
    parser.add_argument(
        "--shard-out",
        default="results/BENCH_shard.json",
        metavar="FILE",
        help=(
            "sharding experiment: where to write the sweep JSON "
            "(default: results/BENCH_shard.json; empty string disables)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the parallel-vs-serial determinism oracle instead",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        help="with --check: write serial/parallel CSVs (and diffs) here",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the named experiments, or with ``--check`` the determinism oracle."""
    if args.check:
        # The oracle compares a pool against the serial path, so it
        # needs at least two workers to mean anything.
        return parallel.check(args.names, max(args.jobs, 2), args.artifacts)
    profile = QUICK_PROFILE if args.quick else FULL_PROFILE
    label = "quick" if args.quick else "full"
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        print(f"Unknown experiment(s): {', '.join(unknown)}; known: {known}")
        return 2
    selected = args.names or list(EXPERIMENTS)
    # A flag that one experiment reads needs that experiment alone.
    for flag, value, only in (
        ("--preset", args.preset, "faults"),
        ("--cohorts", args.cohorts, "scalability"),
    ):
        if value and selected != [only]:
            print(f"{flag} only applies to the {only} experiment")
            return 2
    executor = parallel.make_executor(args.jobs)
    cache = parallel.CellCache(args.cache) if args.cache else None

    start = time.time()
    print(
        f"Running {', '.join(selected)} at the {label} profile "
        f"(jobs={executor.jobs})\n"
    )
    # The flags one experiment reads beyond the shared sweep knobs.
    own_flags = {
        "faults": {"preset": args.preset},
        "scalability": {"cohorts": args.cohorts, "cohort_out": args.cohort_out},
        "sharding": {"shard_out": args.shard_out},
    }
    for name in selected:
        module = EXPERIMENTS[name]
        if name == "fig7":
            module.main()  # analytic; no simulation profile
        else:
            module.main(
                profile,
                executor=executor,
                cache=cache,
                verbose=args.progress,
                **own_flags.get(name, {}),
            )
    print(f"All experiments done in {time.time() - start:.0f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="regenerate the paper's figures and tables",
    )
    return run(add_arguments(parser).parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

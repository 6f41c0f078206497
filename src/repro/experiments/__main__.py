"""Run the experiment harness: every figure and table, or one by name.

    python -m repro.experiments                  # everything, full profile
    python -m repro.experiments --quick          # everything, reduced profile
    python -m repro.experiments faults           # one experiment by name
    python -m repro.experiments fig5 --jobs 4    # map cells over 4 workers
    python -m repro.experiments --jobs 0         # one worker per CPU

``--jobs`` maps every sweep's (scheme, x, seed) cells over worker
processes (:func:`repro.experiments.runner.run_cells`); output is
byte-identical to the serial run.  The cohort sweep (``scalability
--cohorts``) fans its runs out over the usable cores instead, so it
refuses ``--jobs``; ``taskset`` caps its cores.  ``repro experiments``
is this same parser: :mod:`repro.cli` registers :func:`add_arguments`
and dispatches to :func:`run`.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional

from repro.cohort.engine import usable_cores
from repro.experiments import FULL_PROFILE, QUICK_PROFILE
from repro.experiments import (
    faults,
    fig5,
    fig6,
    fig7,
    fig8,
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


def non_negative_int(text: str) -> int:
    """``--jobs``: a worker count, 0 meaning one per CPU."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
        type=non_negative_int,
        default=1,
        metavar="N",
        help="worker processes per sweep (0 = one per CPU, default 1 = serial)",
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
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the named experiments; returns the exit code."""
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
    if args.cohorts and args.jobs != 1:
        print(
            "--jobs does not apply with --cohorts: its runs fan out over "
            "the usable cores; cap them with taskset"
        )
        return 2
    start = time.time()
    if args.cohorts:
        workers = f"cohort runs over {usable_cores()} usable core(s)"
    else:
        workers = f"jobs={args.jobs or os.cpu_count()}"
    print(f"Running {', '.join(selected)} at the {label} profile ({workers})\n")
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
                jobs=args.jobs,
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

"""The differential-oracle harness: one cell loop and one CLI for every mode.

Usage::

    python -m repro.oracle {cohort,shard,live,resilience} [--schemes S ...]
        [--seeds N ...] [--clients N ...] [--cycles N] [--max-seconds S]
        [--artifacts DIR]

Each mode's ``repro.<mode>.oracle`` module supplies its cell functions,
its defaults (``DEFAULT_SCHEMES``, ``DEFAULT_SEEDS``, ``DEFAULT_CLIENTS``,
``DEFAULT_CYCLES``) and ``matrix(schemes, seeds, clients, cycles)``,
which yields ``(label, thunk)`` pairs; a thunk runs one cell and returns
a report dict whose ``mismatches`` list is empty iff the cell passed.  A
mode may also define ``check(reports)``, judged over every report once
the matrix is done (resilience: group liveness and no vacuous pass).

Once ``--max-seconds`` is spent the remaining cells are skipped, not
failed, and listed by label.  A run in which no cell ran fails.  Each
failing cell leaves one JSON file named after its label under
``--artifacts``.  Exit status 0 iff at least one cell ran and nothing
failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.schemes import SCHEME_FACTORIES

MODES = ("cohort", "shard", "live", "resilience")

Cell = Tuple[str, Callable[[], Dict]]


def cells(
    mode: str,
    schemes: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    clients: Optional[Sequence[int]] = None,
    cycles: Optional[int] = None,
) -> List[Cell]:
    """The mode's matrix; an argument left ``None`` takes its default."""
    module = importlib.import_module(f"repro.{mode}.oracle")
    return list(
        module.matrix(
            schemes or module.DEFAULT_SCHEMES,
            seeds or module.DEFAULT_SEEDS,
            clients or module.DEFAULT_CLIENTS,
            cycles if cycles is not None else module.DEFAULT_CYCLES,
        )
    )


def artifact_name(label: str) -> str:
    """The evidence file of the cell called ``label``."""
    return re.sub(r"[^\w.+-]+", "_", label) + ".json"


def run(
    matrix: Iterable[Cell],
    *,
    max_seconds: Optional[float] = None,
    artifacts: Optional[Path] = None,
    check: Optional[Callable[[List[Dict]], List[str]]] = None,
) -> int:
    """Run every cell within the budget, print a verdict, return the exit status."""
    started = time.perf_counter()
    reports: List[Dict] = []
    failed = skipped = 0
    for label, thunk in matrix:
        if max_seconds is not None and time.perf_counter() - started >= max_seconds:
            skipped += 1
            print(f"[skip] {label} (over --max-seconds budget)")
            continue
        t0 = time.perf_counter()
        report = thunk()
        reports.append(report)
        mismatches = report["mismatches"]
        if not mismatches:
            print(f"[ok] {label} ({time.perf_counter() - t0:.2f}s)")
            continue
        failed += 1
        print(f"[FAIL] {label}: {len(mismatches)} mismatch(es)")
        for mismatch in mismatches[:8]:
            print(f"       {mismatch}")
        if artifacts is not None:
            artifacts.mkdir(parents=True, exist_ok=True)
            (artifacts / artifact_name(label)).write_text(
                json.dumps(
                    {"label": label, **report}, indent=2, sort_keys=True, default=str
                )
            )
    if not reports:
        print(f"FAIL: the matrix is empty, no cell ran ({skipped} skipped)")
        return 1
    problems = check(reports) if check is not None else []
    for problem in problems:
        print(f"FAIL {problem}")
    ok = not failed and not problems
    print(
        f"{'PASS' if ok else 'FAIL'}: {len(reports) - failed}/{len(reports)} "
        "cells clean"
        + (f", {skipped} skipped (runtime budget)" if skipped else "")
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle",
        description="Differential oracles: cohort, shard and live runs must "
        "equal the discrete engine, and crash recovery must never commit "
        "an inconsistent readset.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument(
        "--schemes", nargs="+", choices=sorted(SCHEME_FACTORIES), metavar="S"
    )
    parser.add_argument("--seeds", nargs="+", type=int, metavar="N")
    parser.add_argument("--clients", nargs="+", type=int, metavar="N")
    parser.add_argument("--cycles", type=int, metavar="N")
    parser.add_argument(
        "--max-seconds", type=float, metavar="S",
        help="runtime budget; remaining cells are skipped, not failed",
    )
    parser.add_argument(
        "--artifacts", type=Path, metavar="DIR",
        help="directory for one JSON dump per failing cell",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    module = importlib.import_module(f"repro.{args.mode}.oracle")
    return run(
        cells(args.mode, args.schemes, args.seeds, args.clients, args.cycles),
        max_seconds=args.max_seconds,
        artifacts=args.artifacts,
        check=getattr(module, "check", None),
    )


if __name__ == "__main__":
    sys.exit(main())

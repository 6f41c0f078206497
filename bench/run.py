#!/usr/bin/env python3
"""The repository's benchmark: six workloads, one command.

One workload, in this process (what the driver of ``BENCHMARK.json``
calls; the last line of standard output is the result object)::

    python3 bench/run.py --workload serve-flat --seed 11 --seconds 10 --trace 0

Every workload, each run in a fresh child interpreter, one at a time::

    python3 bench/run.py [--seed N] [--trace]   # one set: 5 rounds x 6 workloads
    python3 bench/run.py --agree      # two sets; do they agree within bounds?
    python3 bench/run.py --smoke      # every workload at 1/20 size, < 30 s

See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
try:
    import spec
    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS, Rep, Workload, make_runner
except (ImportError, OSError) as exc:
    raise SystemExit(
        f"bench/run.py needs a checkout of the repository (src/repro and "
        f"BENCHMARK.json beside bench/): {exc}"
    )

OUT = BENCH / "out"
DEFAULT_SEED = 11
ROUNDS = 5
SMOKE_SCALE = 0.05
#: Fresh interpreters started to time the imports; ``setup_s`` takes
#: their median, like that of the repetitions' own set-up.
STARTUPS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_kib() -> int:
    """This process image's resident high-water mark.  Not ``ru_maxrss``:
    across fork and exec that inherits the parent's resident size, so a
    small workload would report whoever started it."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def startup_s() -> float:
    """Interpreter start to the program being importable: a child that
    imports what this process imported and exits."""
    began = perf_counter()
    # No timeout: with one, subprocess polls for the exit at up to 50 ms.
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--import-only"], check=True
    )
    return perf_counter() - began


# -- one workload, in this process ----------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Warm up, measure for ``seconds``, then verify; returns the report."""
    scale = SMOKE_SCALE if smoke else 1.0
    workload = WORKLOADS[name].scaled(scale)
    runner = make_runner(workload, seed)
    # Lazy imports, the selector, the interpreter's specialisation: paid
    # once per process by a small unpaced repetition, not by the first
    # timed one.
    warm = make_runner(WORKLOADS[name].scaled(scale * SMOKE_SCALE), seed).rep(
        verify=True
    )
    tracer = Tracer() if trace else None
    plain: List[Rep] = []
    traced: List[Rep] = []
    elapsed = 0.0
    while True:
        tracing = tracer is not None and len(traced) < len(plain)
        gc.collect()
        rep = runner.rep(verify=False, tracer=tracer if tracing else None)
        (traced if tracing else plain).append(rep)
        elapsed += rep.wall_s
        # At least two windows: an untraced and a traced one, or two to
        # take a median of.
        enough = len(plain) == len(traced) if tracer else len(plain) >= 2
        if enough and elapsed + rep.wall_s / 2 >= seconds:
            break
    # Before the verification repetition, whose checks hold whole
    # streams and histories the measured pipe never does.
    peak_rss_kb = peak_rss_kib()
    gc.collect()
    check = runner.rep(verify=True)

    problems = [f"warm-up: {p}" for p in warm.problems]
    problems += [f"verification: {p}" for p in check.problems]
    for index, rep in enumerate(plain + traced):
        problems += [f"repetition {index}: {p}" for p in rep.problems]
        if rep.counts != check.counts:
            problems.append(
                f"repetition {index}: exact counts {rep.counts} differ from "
                f"the verification repetition's {check.counts}"
            )

    fresh = [ms for rep in plain for ms in rep.fresh_ms]
    # Every repetition of one seed attempts and fails the same operations
    # (checked above), so the result carries one repetition's counts: they
    # do not grow with how many repetitions the box had time for.
    worst = max(plain, key=lambda rep: rep.failed)
    setup = statistics.median(
        startup_s() for _ in range(STARTUPS)
    ) + statistics.median(rep.setup_s for rep in [warm, *plain, check])
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "repetitions": len(plain),
        "correct": not problems,
        "problems": problems,
        "attempted": worst.attempted,
        "failed": worst.failed,
        "counts": check.counts,
        "fresh_ms": fresh,
        "end_to_end": end_to_end(
            workload, runner, plain, fresh, worst, setup, peak_rss_kb
        ),
    }
    if tracer is not None:
        report["per_layer"] = per_layer(
            workload, tracer, plain, traced, report["end_to_end"]
        )
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}.json").write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "traced_repetitions": len(traced),
                    "traced_wall_s": sum(rep.wall_s for rep in traced),
                    "per_layer": report["per_layer"],
                    **tracer.dump(),
                },
                indent=1,
            )
        )
    return report


def end_to_end(
    workload: Workload,
    runner,
    plain: List[Rep],
    fresh: List[float],
    worst: Rep,
    setup_s: float,
    peak_rss_kb: int,
) -> Dict[str, float]:
    """The end-to-end metrics that apply to this workload."""
    counts = plain[0].counts
    wall_s = statistics.median(rep.wall_s for rep in plain)
    metrics = {
        "setup_s": setup_s,
        "cycles_per_s": statistics.median(
            rep.cycles / rep.wall_s for rep in plain
        ),
        "peak_rss_mb": peak_rss_kb / 1024,
        "fail_share": worst.failed / worst.attempted,
    }
    if workload.pace:
        owed = workload.cycles * len(plain)
        metrics["fresh_ms_p50"] = percentile(fresh, 0.50)
        metrics["fresh_ms_p95"] = percentile(fresh, 0.95)
        metrics["late_share"] = sum(rep.late_cycles for rep in plain) / owed
    else:
        # A closed loop or a batch has no schedule: a cycle is due the
        # moment the one before it is through, so its freshness is the
        # time one cycle takes.  The driver's result needs a value here.
        metrics["fresh_ms_p50"] = 1e3 / metrics["cycles_per_s"]
    if "queries" in counts:
        aborted = counts["attempts"] - counts["commits"]
        metrics["abort_share"] = aborted / max(1, counts["attempts"])
        if not workload.pace:
            metrics["queries_per_s"] = counts["queries_done"] / wall_s
    if workload.kind in ("serve", "listen"):
        metrics["wire_bytes_per_cycle"] = runner.stream_bytes / workload.cycles
    return metrics


def per_layer(
    workload: Workload,
    tracer: Tracer,
    plain: List[Rep],
    traced: List[Rep],
    e2e: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric, from the traced repetitions.

    Shares are of the traced windows' wall time -- on the paced workload
    of the part of it in which a cycle was on its way, from the generator
    going on to the listener having processed it; the rest is idle airtime.
    """
    spans = tracer.totals()
    counts = tracer.counts
    live = workload.kind in ("serve", "listen")
    listeners = workload.audience if workload.kind == "listen" else 0
    if workload.pace:
        busy = sum(
            sum(rep.fresh_ms) - sum(rep.sched_lag_ms) for rep in traced
        ) / 1e3
    else:
        busy = sum(rep.wall_s for rep in traced)
    server_cycles = workload.cycles * len(workload.schemes) * len(traced)

    def calls(prefix: str) -> int:
        return sum(c for name, (c, _s) in spans.items() if name.startswith(prefix))

    def self_s(prefix: str) -> float:
        return sum(s for name, (_c, s) in spans.items() if name.startswith(prefix))

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(layer + ".")
        m[f"{layer}.share"] = per(m[f"{layer}.self_s"], busy)
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    for layer in ("engine", "builder", "encode"):
        m[f"{layer}.ms_per_cycle"] = per(m[f"{layer}.self_s"] * 1e3, server_cycles)
    m["engine.calls"] = calls("engine.commit")
    m["engine.txns_per_cycle"] = per(counts.get("engine.txns", 0), m["engine.calls"])
    m["engine.updates_per_cycle"] = per(
        counts.get("engine.updates", 0), m["engine.calls"]
    )
    m["builder.calls"] = calls("builder.build")
    m["builder.clean_bucket_share"] = per(
        counts.get("builder.clean_buckets", 0),
        counts.get("builder.compared_buckets", 0),
    )
    m["encode.calls"] = calls("encode.")
    m["encode.frames_per_cycle"] = per(counts.get("encode.frames", 0), m["encode.calls"])
    m["encode.mb_per_s"] = per(counts.get("encode.bytes", 0) / 1e6, m["encode.self_s"])

    m["transport.self_s"] = max(0.0, busy - attributed) if live else 0.0
    m["transport.ms_per_cycle"] = per(m["transport.self_s"] * 1e3, server_cycles)
    m["transport.share"] = per(m["transport.self_s"], busy)
    m["transport.bytes_out"] = sum(rep.bytes_received for rep in traced) + counts.get(
        "framing.bytes", 0
    )
    lags = [ms for rep in traced for ms in rep.sched_lag_ms]
    m["transport.sched_lag_ms_p95"] = percentile(lags, 0.95) if lags else 0.0

    m["framing.calls"] = calls("framing.")
    m["framing.corrupt_frames"] = counts.get("framing.corrupt_frames", 0)
    m["decode.calls"] = calls("decode.")
    m["decode.ms_per_listener_cycle"] = per(
        m["decode.self_s"] * 1e3, workload.cycles * listeners * len(traced)
    )
    for part in ("control", "data", "overflow", "assemble"):
        m[f"decode.{part}_s"] = self_s(f"decode.{part}")
    m["decode.mb_per_s"] = per(counts.get("decode.bytes", 0) / 1e6, m["decode.self_s"])

    m["client_step.steps"] = sum(rep.client_steps for rep in traced)
    m["client_step.us_per_step"] = per(
        m["client_step.self_s"] * 1e6, m["client_step.steps"]
    )
    m["client_step.install_s"] = self_s("client_step.install")
    m["scheme.cycle_start_calls"] = calls("scheme.")
    m["scheme.cycle_start_s"] = m.pop("scheme.self_s")
    query_counts = plain[0].counts
    m["scheme.commit_share"] = per(
        query_counts.get("commits", 0), query_counts.get("attempts", 0)
    )
    m["kernel.events"] = sum(rep.kernel_events for rep in traced)
    m["kernel.events_per_s"] = per(m["kernel.events"], m["kernel.self_s"])

    # Tracing cost: traced against untraced repetitions of this very run.
    # The paced schedule pins the wall, so there the freshness carries it.
    if workload.pace:
        cost = [ms for rep in traced for ms in rep.fresh_ms]
        base = [ms for rep in plain for ms in rep.fresh_ms]
    else:
        cost = [rep.wall_s / rep.cycles for rep in traced]
        base = [rep.wall_s / rep.cycles for rep in plain]
    m["trace.overhead_share"] = (
        statistics.median(cost) / statistics.median(base) - 1
    )
    m["trace.attributed_share"] = per(attributed, busy)

    for name in spec.UNGATED:
        m[name] = e2e.get(name, 0.0)
    return {name: m[name] for name in spec.PER_LAYER}


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}  seed {report['seed']}  "
          f"{report['repetitions']} timed repetition(s)")
    for metric, value in report["end_to_end"].items():
        print(f"  {metric:<28} {value:>14.4f} {spec.END_TO_END[metric].unit}")
    fresh = report["fresh_ms"]
    if fresh:
        beyond = len(fresh) - math.ceil(0.95 * len(fresh))
        print(f"  fresh_ms: {len(fresh)} samples, {beyond} beyond the p95")
    for metric, value in report.get("per_layer", {}).items():
        if metric in spec.UNGATED:  # printed above
            continue
        print(f"  {metric:<28} {value:>14.4f} {spec.PER_LAYER[metric]}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'pass' if report['correct'] else 'FAIL'}  "
          f"(attempted {report['attempted']}, failed {report['failed']})")


def result_line(report: dict, trace: bool) -> str:
    """The driver's contract: one JSON object, last on standard output."""
    if trace:
        values, units = report["per_layer"], spec.PER_LAYER
    else:
        values = {name: report["end_to_end"][name] for name in spec.GATED}
        units = {name: spec.END_TO_END[name].unit for name in spec.GATED}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        }
    )


# -- sets of runs, each in a fresh child ----------------------------------------


def child(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
    echo: bool = False,
) -> dict:
    """One workload in a fresh interpreter (clean RSS and GC state)."""
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{name}.json"
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--report", str(report_path),
    ] + ["--smoke-size"] * smoke
    report_path.unlink(missing_ok=True)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=180)
    if not report_path.exists():
        raise SystemExit(
            f"{name}: child exited with {done.returncode} and no report\n"
            f"{done.stdout}"
        )
    if echo:
        print(done.stdout.rsplit("\n", 2)[0])
    return json.loads(report_path.read_text())


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_set(seed: int, seconds: float, label: str) -> dict:
    """ROUNDS rounds; each runs every workload once, in rotating order, so
    a noisy neighbour's minute is spread over the workloads."""
    names = spec.WORKLOAD_NAMES
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for round_index in range(ROUNDS):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            report = child(name, seed, seconds, False)
            runs[name].append(report)
            print(f"  [{label} round {round_index + 1}/{ROUNDS}] {name:<18}"
                  f"{report['end_to_end']['cycles_per_s']:>12.2f} cycles/s  "
                  f"{'ok' if report['correct'] else 'CHECK FAILED'}", flush=True)
    summary: Dict[str, dict] = {}
    for name, reports in runs.items():
        problems = [p for report in reports for p in report["problems"]]
        if any(report["counts"] != reports[0]["counts"] for report in reports):
            problems.append("exact counts differ between rounds of one seed")
        summary[name] = {
            "problems": problems,
            "metrics": {
                metric: quartiles([r["end_to_end"][metric] for r in reports])
                for metric in reports[0]["end_to_end"]
            },
        }
        # Latency percentiles are pooled over the set's rounds.
        pooled = [ms for report in reports for ms in report["fresh_ms"]]
        if pooled:
            summary[name]["fresh_ms_pooled"] = {
                "samples": len(pooled),
                "p50": percentile(pooled, 0.50),
                "p95": percentile(pooled, 0.95),
            }
    return summary


def print_set(summary: dict, label: str) -> None:
    print(f"\n{label}: median [q1 .. q3] over rounds")
    for name, entry in summary.items():
        print(f"== {name}")
        for metric, (q1, median, q3) in entry["metrics"].items():
            unit = spec.END_TO_END[metric].unit
            print(f"  {metric:<22} {median:>14.4f} [{q1:.4f} .. {q3:.4f}] {unit}")
        pooled = entry.get("fresh_ms_pooled")
        if pooled:
            print(f"  fresh_ms pooled over the set: p50 {pooled['p50']:.4f} ms,"
                  f" p95 {pooled['p95']:.4f} ms ({pooled['samples']} samples)")
        for problem in entry["problems"]:
            print(f"  CHECK FAILED: {problem}")


def gap(metric: str, first: float, second: float) -> float:
    kind = spec.END_TO_END[metric].kind
    if kind == "rel":
        return abs(second - first) / abs(first) if first else abs(second)
    return abs(second - first)


def agree(first: dict, second: dict) -> bool:
    """Every metric x workload in its own row; False if any gap between
    the two sets' medians exceeds that metric's bound."""
    print("\nagreement of two sets of the same code")
    print(f"{'workload':<18}{'metric':<22}{'first [q1..q3]':>42}"
          f"{'second [q1..q3]':>42}{'gap':>9}{'bound':>8}")
    within = True
    for name in first:
        for metric, (a1, a, a3) in first[name]["metrics"].items():
            b1, b, b3 = second[name]["metrics"][metric]
            bound = spec.END_TO_END[metric].bound
            distance = gap(metric, a, b)
            ok = bound is None or distance <= bound
            within &= ok
            print(f"{name:<18}{metric:<22}"
                  f"{f'{a:.4f} [{a1:.4f}..{a3:.4f}]':>42}"
                  f"{f'{b:.4f} [{b1:.4f}..{b3:.4f}]':>42}{distance:>9.4f}"
                  f"{'none' if bound is None else format(bound, '.2f'):>8}"
                  f"{'' if ok else '  EXCEEDED'}")
    return within


def smoke(seed: int) -> int:
    """Every workload at 1/20 size, traced, and the names held to the
    contract's pattern."""
    failures: List[str] = []
    for name in spec.WORKLOAD_NAMES:
        if not spec.NAME.fullmatch(name) or name not in WORKLOADS:
            failures.append(f"workload name {name!r}")
    for metric, entry in spec.END_TO_END.items():
        if not spec.NAME.fullmatch(metric):
            failures.append(f"metric name {metric!r}")
        if not entry.unit or entry.better not in ("lower", "higher"):
            failures.append(f"{metric}: unit or direction missing")
        if metric in spec.GATED and not 0 < entry.bound <= 0.25:
            failures.append(f"{metric}: bound {entry.bound}")
    failures += [f"metric name {m!r}" for m in spec.PER_LAYER
                 if not spec.NAME.fullmatch(m)]
    failures += [f"{m} is not listed in BENCHMARK.json"
                 for m in spec.UNGATED if m not in spec.PER_LAYER]
    for name in spec.WORKLOAD_NAMES:
        report = child(name, seed, 0.0, True, smoke=True)
        failures += [f"{name}: {p}" for p in report["problems"]]
        missing = set(spec.GATED) - set(report["end_to_end"])
        missing |= set(spec.PER_LAYER) - set(report["per_layer"])
        unknown = set(report["end_to_end"]) - set(spec.END_TO_END)
        if missing or unknown:
            failures.append(f"{name}: missing {missing}, unknown {unknown}")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print(f"smoke: {len(spec.WORKLOAD_NAMES)} workloads, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    # What this command passes to its own children.
    parser.add_argument("--smoke-size", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--report", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.import_only:
        return 0

    if args.workload:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke_size,
        )
        print_report(report)
        if args.report:
            args.report.write_text(json.dumps(report))
        print(result_line(report, bool(args.trace)))
        return 0 if report["correct"] else 1
    if args.smoke:
        return smoke(args.seed)

    first = run_set(args.seed, args.seconds, "set 1")
    print_set(first, "set 1")
    ok = not any(entry["problems"] for entry in first.values())
    if args.agree:
        second = run_set(args.seed, args.seconds, "set 2")
        print_set(second, "set 2")
        ok &= not any(entry["problems"] for entry in second.values())
        ok &= agree(first, second)
    if args.trace:
        for name in spec.WORKLOAD_NAMES:
            ok &= child(
                name, args.seed, args.seconds, True, echo=True
            )["correct"]
    OUT.mkdir(exist_ok=True)
    (OUT / "set.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "rounds": ROUNDS,
                "seconds": args.seconds,
                "quartiles": "q1, median, q3 over rounds",
                "workloads": first,
            },
            indent=1,
        )
    )
    print(f"\n{'all checks pass' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

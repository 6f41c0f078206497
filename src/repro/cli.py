"""Command-line interface: run a simulation from the shell.

    python -m repro run --scheme sgt+cache --cycles 120 --clients 4
    python -m repro run --scheme inval --trace run.jsonl --trace-level read
    python -m repro trace summarize run.jsonl
    python -m repro schemes
    python -m repro sizes --updates 50 --span 3

Subcommands
-----------
``run``
    One simulation with the chosen scheme and knobs; prints the result
    summary (and, with ``--verify``, replays every committed query
    against the correctness oracle).  ``--trace FILE`` records a JSONL
    event trace plus a ``FILE.manifest.json`` provenance record.
``trace``
    Analyze a recorded trace: ``summarize``, ``timeline``, ``aborts``,
    ``airtime``.
``experiments``
    Regenerate the paper's figures and tables; ``--jobs N`` shards each
    sweep's (scheme, x, seed) cells over N worker processes with
    byte-identical output, ``--cache DIR`` makes sweeps resumable, and
    ``--check`` runs the parallel-vs-serial determinism oracle instead
    (see :mod:`repro.experiments.parallel`).
``serve`` / ``listen``
    Live mode (:mod:`repro.live`): air a real broadcast over TCP /
    join one as a listening client.
``schemes``
    List the registered scheme labels.
``sizes``
    Print the analytic broadcast-size table (Figure 7 row) for the
    chosen operating point.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import RETRY_POLICIES, ModelParameters
from repro.core.control import ReportSchedule
from repro.faults.presets import get_preset, preset_names
from repro.experiments.render import render_table
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory
from repro.obs.analyze import TraceAnalyzer
from repro.obs.manifest import git_revision, write_manifest
from repro.obs.trace import JsonlSink, TraceLevel, Tracer
from repro.runtime import Simulation
from repro.server.sizing import SizeModel
from repro.shard.partition import PARTITIONERS
from repro.shard.scheme import CONSISTENCY_MODES


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable processing of read-only transactions in broadcast "
            "push (Pitoura & Chrysanthis, ICDCS 1999) -- reproduction CLI"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} ({git_revision()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument(
        "--scheme",
        default="sgt+cache",
        choices=sorted(SCHEME_FACTORIES),
        help="processing scheme (default: sgt+cache)",
    )
    run.add_argument("--cycles", type=int, default=120, help="broadcast cycles")
    run.add_argument("--warmup", type=int, default=10, help="warm-up cycles")
    run.add_argument("--clients", type=int, default=4, help="client count")
    run.add_argument("--seed", type=int, default=42, help="RNG seed")
    run.add_argument("--broadcast-size", type=int, default=1000, help="items (D)")
    run.add_argument("--update-range", type=int, default=500)
    run.add_argument("--updates", type=int, default=50, help="updates per cycle (U)")
    run.add_argument("--offset", type=int, default=100)
    run.add_argument("--ops", type=int, default=16, help="reads per query")
    run.add_argument("--read-range", type=int, default=250)
    run.add_argument("--cache-size", type=int, default=125)
    run.add_argument("--think-time", type=float, default=2.0)
    run.add_argument("--retention", type=int, default=16, help="S / V versions")
    run.add_argument(
        "--reports-per-cycle", type=int, default=1, help="sub-cycle reports (§7)"
    )
    run.add_argument(
        "--report-window", type=int, default=0, help="w-window retransmission"
    )
    run.add_argument(
        "--interleaved-server",
        action="store_true",
        help="run server transactions under the real 2PL lock manager",
    )
    run.add_argument(
        "--cohorts",
        action="store_true",
        help=(
            "advance the client population with the cohort engine "
            "(repro.cohort) instead of one kernel process per client; "
            "aggregates match the discrete engine exactly, memory stays "
            "bounded in --cohort-size, so --clients can reach 10^5+"
        ),
    )
    run.add_argument(
        "--cohort-size",
        type=int,
        default=4096,
        metavar="N",
        help="clients advanced per cohort chunk (default: 4096)",
    )
    shard = run.add_argument_group(
        "sharding", "partition items over K broadcast channels (see repro.shard)"
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "run the sharded multi-channel server with K shards "
            "(K=1 is bit-identical to the single-channel server)"
        ),
    )
    shard.add_argument(
        "--partitioner",
        default="hash",
        choices=sorted(PARTITIONERS),
        help="item-to-shard mapping (default: hash)",
    )
    shard.add_argument(
        "--shard-consistency",
        default="local",
        choices=list(CONSISTENCY_MODES),
        help="cross-shard read consistency mode (default: local)",
    )
    shard.add_argument(
        "--cross-shard-fraction",
        type=float,
        default=None,
        metavar="F",
        help=(
            "steer this fraction of queries to span shards "
            "(default: the workload's natural mix)"
        ),
    )
    fault = run.add_argument_group(
        "fault injection", "degrade the air interface (see repro.faults)"
    )
    fault.add_argument(
        "--slot-loss", type=float, default=0.0, help="per-slot loss probability"
    )
    fault.add_argument(
        "--burst-loss", type=float, default=0.0, help="burst (fade) start probability"
    )
    fault.add_argument(
        "--burst-length", type=float, default=4.0, help="mean burst length in slots"
    )
    fault.add_argument(
        "--control-loss",
        type=float,
        default=0.0,
        help="control-bucket corruption probability",
    )
    fault.add_argument(
        "--truncation", type=float, default=0.0, help="cycle-truncation probability"
    )
    fault.add_argument(
        "--report-delay",
        type=float,
        default=0.0,
        help="late control-decode probability",
    )
    fault.add_argument(
        "--storm-rate",
        type=float,
        default=0.0,
        help="per-cycle disconnect-storm start probability",
    )
    fault.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault RNG seed (default: derived from --seed)",
    )
    fault.add_argument(
        "--preset",
        default=None,
        metavar="NAME",
        help=(
            "named fault scenario; replaces the individual fault knobs "
            f"(known: {', '.join(preset_names())})"
        ),
    )
    fault.add_argument(
        "--severity",
        type=float,
        default=1.0,
        help="scale the preset's probabilities (default: 1.0)",
    )
    res = run.add_argument_group(
        "resilience", "client recovery and retry (see repro.resilience)"
    )
    res.add_argument(
        "--retry-policy",
        default="immediate",
        choices=sorted(RETRY_POLICIES),
        help="retry scheduling between attempts (default: immediate)",
    )
    res.add_argument(
        "--backoff-base", type=int, default=1, help="first backoff delay (cycles)"
    )
    res.add_argument(
        "--backoff-cap", type=int, default=8, help="max backoff delay (cycles)"
    )
    res.add_argument(
        "--backoff-jitter",
        type=float,
        default=0.0,
        help="jitter fraction added to each delay (seeded)",
    )
    res.add_argument(
        "--deadline",
        type=int,
        default=0,
        help="abandon a query after this many cycles (0 = never)",
    )
    res.add_argument(
        "--watchdog",
        type=int,
        default=0,
        help="escalate after N consecutive aborted attempts (0 = off)",
    )
    res.add_argument(
        "--checkpoint",
        type=int,
        default=0,
        help="checkpoint client state every N heard cycles (0 = off)",
    )
    res.add_argument(
        "--catchup-window",
        type=int,
        default=8,
        help="max outage length for incremental catch-up resync",
    )
    res.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-cycle client crash probability",
    )
    res.add_argument(
        "--crash-length",
        type=float,
        default=2.0,
        help="mean crash outage length in cycles",
    )
    res.add_argument(
        "--degrade-after",
        type=int,
        default=0,
        help="step the degradation ladder down after N faulty cycles (0 = off)",
    )
    res.add_argument(
        "--recover-after",
        type=int,
        default=3,
        help="step the ladder back up after N clean cycles",
    )
    res.add_argument(
        "--resilience-seed",
        type=int,
        default=None,
        help="resilience RNG seed (default: derived from --seed)",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="replay every committed query against the correctness oracle",
    )
    trace_group = run.add_argument_group(
        "tracing", "record a structured event trace (see repro.obs)"
    )
    trace_group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL event trace (plus FILE.manifest.json)",
    )
    trace_group.add_argument(
        "--trace-level",
        default="query",
        choices=[level.name.lower() for level in TraceLevel if level > 0],
        help="trace depth (default: query)",
    )

    trace = sub.add_parser("trace", help="analyze a recorded JSONL trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
        ("summarize", "overall event/outcome summary"),
        ("timeline", "per-transaction event timelines"),
        ("aborts", "abort counts by reason and by root cause"),
        ("airtime", "per-segment slot accounting from cycle events"),
    ):
        cmd = trace_sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="JSONL trace file")
        if name == "timeline":
            cmd.add_argument(
                "--txn", default=None, help="only this transaction id"
            )
            cmd.add_argument(
                "--client", type=int, default=None, help="only this client"
            )
            cmd.add_argument(
                "--limit", type=int, default=10, help="max timelines shown"
            )
        if name == "aborts":
            cmd.add_argument(
                "--all",
                action="store_true",
                help="include warm-up (unmeasured) aborts",
            )

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's figures and tables"
    )
    experiments.add_argument(
        "names", nargs="*", metavar="NAME", help="experiments (default: all)"
    )
    experiments.add_argument(
        "--quick", action="store_true", help="reduced profile for smoke runs"
    )
    experiments.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep (0 = one per CPU, default: serial)",
    )
    experiments.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="resumable cell cache directory",
    )
    experiments.add_argument(
        "--progress",
        action="store_true",
        help="per-cell progress and speedup lines on stderr",
    )
    experiments.add_argument(
        "--preset",
        default=None,
        metavar="NAME",
        help="named fault scenario for the faults experiment",
    )
    experiments.add_argument(
        "--cohorts",
        action="store_true",
        help=(
            "scalability experiment only: sweep the cohort engine to "
            "10^5 clients (see repro.cohort)"
        ),
    )
    experiments.add_argument(
        "--cohort-out",
        default=None,
        metavar="FILE",
        help="with --cohorts: also write the sweep as a bench JSON",
    )
    experiments.add_argument(
        "--shard-out",
        default="results/BENCH_shard.json",
        metavar="FILE",
        help=(
            "sharding experiment: where to write the sweep JSON "
            "(default: results/BENCH_shard.json; empty string disables)"
        ),
    )
    experiments.add_argument(
        "--check",
        action="store_true",
        help="run the parallel-vs-serial determinism oracle instead",
    )
    experiments.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="with --check: write serial/parallel CSVs (and diffs) here",
    )

    serve = sub.add_parser(
        "serve",
        help="air a live broadcast over TCP (see repro.live)",
    )
    serve.add_argument(
        "--scheme",
        default="sgt+cache",
        choices=sorted(SCHEME_FACTORIES),
        help="scheme whose broadcast requirements the server airs",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7787, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--slot-seconds",
        type=float,
        default=0.0,
        help="wall-clock pacing per broadcast slot (0 = full speed)",
    )
    serve.add_argument("--cycles", type=int, default=120)
    serve.add_argument("--warmup", type=int, default=10)
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        help="advertised population size (rides in the HELLO frame)",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--broadcast-size", type=int, default=1000)
    serve.add_argument("--update-range", type=int, default=500)
    serve.add_argument("--updates", type=int, default=50)
    serve.add_argument("--offset", type=int, default=100)
    serve.add_argument("--retention", type=int, default=16)
    serve.add_argument("--ops", type=int, default=16)
    serve.add_argument("--read-range", type=int, default=250)
    serve.add_argument("--cache-size", type=int, default=125)
    serve.add_argument("--think-time", type=float, default=2.0)
    serve.add_argument(
        "--report-window", type=int, default=0, help="w-window retransmission"
    )

    listen = sub.add_parser(
        "listen",
        help="join a live broadcast as one client (see repro.live)",
    )
    listen.add_argument("--host", default="127.0.0.1")
    listen.add_argument("--port", type=int, default=7787)
    listen.add_argument(
        "--scheme",
        default=None,
        choices=sorted(SCHEME_FACTORIES),
        help="override the scheme advertised in the server's HELLO",
    )
    listen.add_argument("--client-id", type=int, default=0)
    listen.add_argument(
        "--rng-seed",
        type=int,
        default=None,
        help="workload RNG seed (default: derived from the served seed)",
    )

    sub.add_parser("schemes", help="list scheme labels")

    sizes = sub.add_parser("sizes", help="analytic broadcast sizes (Figure 7)")
    sizes.add_argument("--updates", type=int, default=50)
    sizes.add_argument("--span", type=int, default=3)
    sizes.add_argument("--broadcast-size", type=int, default=1000)

    return parser


def _params_from(args: argparse.Namespace) -> ModelParameters:
    params = (
        ModelParameters()
        .with_server(
            broadcast_size=args.broadcast_size,
            update_range=args.update_range,
            updates_per_cycle=args.updates,
            offset=args.offset,
            retention=args.retention,
        )
        .with_client(
            ops_per_query=args.ops,
            read_range=args.read_range,
            cache_size=args.cache_size,
            think_time=args.think_time,
        )
        .with_sim(
            num_cycles=args.cycles,
            warmup_cycles=args.warmup,
            num_clients=args.clients,
            seed=args.seed,
        )
        .with_resilience(
            retry_policy=args.retry_policy,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
            backoff_jitter=args.backoff_jitter,
            deadline_cycles=args.deadline,
            watchdog_attempts=args.watchdog,
            checkpoint_interval=args.checkpoint,
            catchup_window=args.catchup_window,
            crash_rate=args.crash_rate,
            crash_length=args.crash_length,
            degrade_after=args.degrade_after,
            recover_after=args.recover_after,
            seed=args.resilience_seed,
        )
    )
    if args.preset is not None:
        return get_preset(args.preset).apply(params, args.severity)
    return params.with_faults(
        slot_loss=args.slot_loss,
        burst_rate=args.burst_loss,
        burst_length=args.burst_length,
        control_loss=args.control_loss,
        truncation=args.truncation,
        report_delay=args.report_delay,
        storm_rate=args.storm_rate,
        seed=args.fault_seed,
    )


def _result_rows(result) -> List[List[str]]:
    """Summary-table rows shared by the discrete and cohort run paths."""
    rows = [
        ["scheme", result.scheme_label],
        ["cycles", str(result.cycles_completed)],
        ["mean bcast length (buckets)", f"{result.mean_cycle_slots:.1f}"],
        ["attempts", str(result.total_attempts)],
        ["committed", str(result.committed_attempts)],
        ["abort rate", f"{result.abort_rate:.3f}"],
        ["latency (cycles)", f"{result.mean_latency_cycles:.2f}"],
        ["span (cycles)", f"{result.mean_span:.2f}"],
    ]
    for name, counter in sorted(result.metrics.counters()):
        if name.startswith("abort."):
            rows.append([name, str(counter.value)])
    return rows


def _make_tracer(args, params) -> Optional[Tracer]:
    """``--trace FILE``: tracer plus manifest, shared by every run path."""
    from repro import __version__

    if not args.trace:
        return None
    manifest_path = write_manifest(
        f"{args.trace}.manifest.json",
        params=params,
        scheme=args.scheme,
        extra={"trace": args.trace, "trace_level": args.trace_level},
    )
    tracer = Tracer(
        level=TraceLevel.parse(args.trace_level),
        sinks=[JsonlSink(args.trace)],
    )
    tracer.header(
        version=__version__,
        git_rev=git_revision(),
        scheme=args.scheme,
        seed=args.seed,
        manifest=str(manifest_path),
    )
    return tracer


def _refused(engine: str, why: str, flags) -> bool:
    """Print the ``--cohorts`` / ``--shards`` rejection if any flag is on."""
    unsupported = [flag for flag, on in flags if on]
    if unsupported:
        print(f"{engine} is incompatible with {', '.join(unsupported)}: {why}")
    return bool(unsupported)


def _command_run(args: argparse.Namespace) -> int:
    tracer = None
    # One handler for every engine: a bad parameter is a ValueError out
    # of parameter building or construction, never out of the run.
    try:
        params = _params_from(args)
        schedule = ReportSchedule(
            per_cycle=args.reports_per_cycle, window=args.report_window
        )
        if args.cohorts:
            from repro.cohort import CohortSimulation

            if _refused(
                "--cohorts",
                "the cohort engine aggregates a single-channel population "
                "(use the discrete engine for per-event tooling and the "
                "sharded server)",
                (
                    ("--trace", bool(args.trace)),
                    ("--verify", args.verify),
                    ("--interleaved-server", args.interleaved_server),
                    ("--shards", args.shards is not None),
                    (
                        "--cross-shard-fraction",
                        args.cross_shard_fraction is not None,
                    ),
                ),
            ):
                return 2
            report = _report_cohorts
            sim = CohortSimulation(
                params,
                scheme_factory=scheme_factory(args.scheme),
                report_schedule=schedule,
                cohort_size=args.cohort_size,
            )
        elif args.shards is not None:
            from repro.shard import ShardedSimulation

            if _refused(
                "--shards",
                "sharded channels drive plain listeners (run the "
                "single-channel server for 2PL interleaving and recovery)",
                (
                    ("--interleaved-server", args.interleaved_server),
                    ("resilience knobs", params.resilience.active),
                ),
            ):
                return 2
            report = _report_sharded
            tracer = _make_tracer(args, params)
            sim = ShardedSimulation(
                params,
                scheme_factory(args.scheme),
                num_shards=args.shards,
                partitioner=args.partitioner,
                consistency=args.shard_consistency,
                cross_shard_fraction=args.cross_shard_fraction,
                report_schedule=schedule,
                keep_history=args.verify,
                tracer=tracer,
            )
        else:
            report = _report_single
            tracer = _make_tracer(args, params)
            sim = Simulation(
                params,
                scheme_factory=scheme_factory(args.scheme),
                report_schedule=schedule,
                keep_history=args.verify,
                interleaved_server=args.interleaved_server,
                tracer=tracer,
            )
    except ValueError as error:
        if tracer is not None:
            tracer.close()
        print(f"run: {error}")
        return 2
    result = sim.run()
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace}")
    return report(args, params, sim, result)


def _report_cohorts(args, params, sim, result) -> int:
    """`repro run --cohorts`: cohort-engine population run."""
    rows = _result_rows(result)
    rows.append(["clients (cohort mode)", str(params.sim.num_clients)])
    rows.append(["cohort size", str(args.cohort_size)])
    rows.append(["client steps", str(sim.steps)])
    if params.faults.active:
        for name, value in sorted(result.metrics.fault_summary().items()):
            rows.append([name, str(value)])
    print(render_table(["measure", "value"], rows, title="simulation result"))
    return 0


def _report_sharded(args, params, sim, result) -> int:
    """`repro run --shards K`: sharded multi-channel server run."""
    from repro.shard import sharded_violations
    from repro.stats import names as metric_names

    rows = _result_rows(result)
    rows.append(["shards", str(args.shards)])
    rows.append(["partitioner", args.partitioner])
    rows.append(["consistency", args.shard_consistency])
    cross = result.metrics.get_counter(metric_names.SHARD_CROSS_COMMITS)
    rows.append(["cross-shard commits", str(cross.value if cross else 0)])
    if args.shard_consistency == "epoch":
        epoch = result.metrics.get_counter(metric_names.SHARD_EPOCH_ABORTS)
        rows.append(["epoch aborts", str(epoch.value if epoch else 0)])
    for shard in sim.shards:
        sampler = result.metrics.get_sampler(
            metric_names.shard_metric(shard.index, metric_names.BROADCAST_SLOTS)
        )
        if sampler is not None and sampler.count:
            rows.append(
                [
                    f"shard {shard.index} slots",
                    f"{sampler.mean:.1f} mean x {len(shard.items)} items",
                ]
            )
    if params.faults.active:
        for name, value in sorted(result.metrics.fault_summary().items()):
            rows.append([name, str(value)])
    print(render_table(["measure", "value"], rows, title="simulation result"))

    if args.verify:
        bad = sharded_violations(sim)
        print(f"correctness oracle: {len(bad)} violation(s)")
        if bad:
            for txn, why in bad[:5]:
                print(f"  {txn.txn_id} [{why}]: {dict(txn.reads)}")
            return 1
    return 0


def _report_single(args, params, sim, result) -> int:
    rows = _result_rows(result)
    if params.faults.active:
        for name, value in sorted(result.metrics.fault_summary().items()):
            rows.append([name, str(value)])
    if params.resilience.active:
        from repro.stats import names as metric_names

        for name in metric_names.RESILIENCE_COUNTERS:
            counter = result.metrics.get_counter(name)
            rows.append([name, str(counter.value if counter else 0)])
        ttr = result.metrics.get_sampler(metric_names.TIME_TO_RECOVER_CYCLES)
        if ttr is not None and ttr.count:
            rows.append(
                [metric_names.TIME_TO_RECOVER_CYCLES, f"{ttr.mean:.1f} mean"]
            )
    print(render_table(["measure", "value"], rows, title="simulation result"))

    if args.verify:
        from repro.verify import violations

        bad = violations(sim.clients, sim.database, sim.engine.history)
        print(f"correctness oracle: {len(bad)} violation(s)")
        if bad:
            for txn in bad[:5]:
                print(f"  {txn.txn_id}: {dict(txn.reads)}")
            return 1
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    analyzer = TraceAnalyzer.from_jsonl(args.file)

    if args.trace_command == "summarize":
        info = analyzer.summary()
        rows = [
            ["events", str(info["events"])],
            ["cycles", str(info["cycles"])],
            ["last cycle", str(info["last_cycle"])],
            ["t range", f"{info['t_min']:.1f} .. {info['t_max']:.1f}"],
            ["accepted (measured)", f"{info['accepted']} ({info['accepted_measured']})"],
            ["aborted (measured)", f"{info['aborted']} ({info['aborted_measured']})"],
        ]
        header = info["header"]
        if header:
            for key in ("version", "git_rev", "scheme", "seed", "level"):
                if key in header:
                    rows.append([key, str(header[key])])
        print(render_table(["measure", "value"], rows, title=f"trace {args.file}"))
        kind_rows = [
            [kind, str(count)]
            for kind, count in sorted(analyzer.kind_counts().items())
        ]
        print(render_table(["event kind", "count"], kind_rows))
        return 0

    if args.trace_command == "timeline":
        lines = analyzer.timelines(txn=args.txn, client=args.client)
        if not lines:
            print("no matching query events in trace")
            return 1
        for tid in sorted(lines)[: args.limit]:
            print(f"{tid}:")
            for event in lines[tid]:
                extra = {
                    k: v
                    for k, v in event.items()
                    if k not in ("t", "kind", "txn", "client")
                }
                print(f"  t={event['t']:<8g} {event['kind']:<14} {extra}")
        shown = min(len(lines), args.limit)
        if shown < len(lines):
            print(f"... {len(lines) - shown} more (raise --limit)")
        return 0

    if args.trace_command == "aborts":
        measured_only = not args.all
        breakdown = analyzer.abort_breakdown(measured_only=measured_only)
        causes = analyzer.abort_causes(measured_only=measured_only)
        scope = "measured attempts" if measured_only else "all attempts"
        rows = [[r, str(n)] for r, n in sorted(breakdown.items())]
        print(render_table(["reason", "count"], rows, title=f"aborts by reason ({scope})"))
        rows = [[c, str(n)] for c, n in sorted(causes.items())]
        print(render_table(["root cause", "count"], rows, title="aborts by root cause"))
        return 0

    if args.trace_command == "airtime":
        totals = analyzer.airtime_totals()
        if not totals["cycles"]:
            print("no cycle.start events in trace (record at level >= cycle)")
            return 1
        rows = [
            [
                seg,
                str(int(totals[seg])),
                f"{totals[f'{seg}_fraction']:.1%}",
            ]
            for seg in ("control", "index", "data", "overflow")
        ]
        aired = int(totals["aired"])
        rows.append(["aired", str(aired), "100.0%"])
        if aired != int(totals["total"]):
            rows.append(
                ["superframe total", str(int(totals["total"])), "--"]
            )
        print(
            render_table(
                ["segment", "slots", "share"],
                rows,
                title=f"airtime over {int(totals['cycles'])} cycles",
            )
        )
        per_shard = analyzer.shard_airtime()
        if per_shard:
            aired = sum(row["total"] for row in per_shard.values())
            rows = [
                [
                    str(shard),
                    str(row["control"]),
                    str(row["index"]),
                    str(row["data"]),
                    str(row["overflow"]),
                    str(row["total"]),
                    f"{row['total'] / aired:.1%}" if aired else "0.0%",
                ]
                for shard, row in sorted(per_shard.items())
            ]
            print(
                render_table(
                    [
                        "shard",
                        "control",
                        "index",
                        "data",
                        "overflow",
                        "slots",
                        "share",
                    ],
                    rows,
                    title=(
                        f"per-shard airtime ({len(per_shard)} channels; "
                        "superframe = max per cycle, not sum)"
                    ),
                )
            )
        return 0

    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _command_experiments(args: argparse.Namespace) -> int:
    if args.check:
        from repro.experiments import parallel

        argv: List[str] = ["check", "--jobs", str(max(args.jobs, 2))]
        if args.artifacts:
            argv += ["--artifacts", args.artifacts]
        argv += args.names
        return parallel.main(argv)

    from repro.experiments.__main__ import main as experiments_main

    argv = list(args.names)
    if args.quick:
        argv.append("--quick")
    argv += ["--jobs", str(args.jobs)]
    if args.cache:
        argv += ["--cache", args.cache]
    if args.progress:
        argv.append("--progress")
    if args.preset:
        argv += ["--preset", args.preset]
    if args.cohorts:
        argv.append("--cohorts")
    if args.cohort_out:
        argv += ["--cohort-out", args.cohort_out]
    argv += ["--shard-out", args.shard_out]
    return experiments_main(argv)


def _serve_params(args: argparse.Namespace) -> ModelParameters:
    return (
        ModelParameters()
        .with_server(
            broadcast_size=args.broadcast_size,
            update_range=args.update_range,
            updates_per_cycle=args.updates,
            offset=args.offset,
            retention=args.retention,
        )
        .with_client(
            ops_per_query=args.ops,
            read_range=args.read_range,
            cache_size=args.cache_size,
            think_time=args.think_time,
        )
        .with_sim(
            num_cycles=args.cycles,
            warmup_cycles=args.warmup,
            num_clients=args.clients,
            seed=args.seed,
        )
    )


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.live.clock import ImmediateClock, RealTimeClock
    from repro.live.server import LiveBroadcastServer

    params = _serve_params(args)
    scheme = scheme_factory(args.scheme)()
    clock = (
        RealTimeClock(args.slot_seconds)
        if args.slot_seconds > 0
        else ImmediateClock()
    )
    try:
        server = LiveBroadcastServer(
            params,
            scheme.requirements(),
            scheme_label=args.scheme,
            host=args.host,
            port=args.port,
            clock=clock,
            report_schedule=ReportSchedule(window=args.report_window),
        )
    except ValueError as error:
        print(f"serve: {error}")
        return 2

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"airing {args.scheme} on {server.host}:{server.port} "
            f"({params.sim.num_cycles} cycles; ctrl-c stops cleanly)"
        )
        try:
            await server.run()
        finally:
            await server.stop()

    asyncio.run(_serve())
    print(
        f"aired {server.backend.cycles_completed} cycle(s), "
        f"end time {server.end_time:.0f} slots"
    )
    return 0


def _command_listen(args: argparse.Namespace) -> int:
    import asyncio
    import random as random_module

    from repro.live.client import LiveClient
    from repro.live.codec import FrameError

    rng = (
        random_module.Random(args.rng_seed)
        if args.rng_seed is not None
        else None
    )
    client = LiveClient(
        args.host,
        args.port,
        scheme=args.scheme,
        client_id=args.client_id,
        rng=rng,
    )
    try:
        result = asyncio.run(client.run())
    except KeyboardInterrupt:
        print("listen: interrupted before the broadcast ended")
        return 1
    except (ConnectionError, OSError, FrameError) as error:
        print(f"listen: {error}")
        return 1
    ratio = result.metrics.get_ratio("attempt.committed")
    rows = [
        ["scheme", result.scheme_label],
        ["cycles heard", str(result.cycles_heard)],
        ["cycles missed", str(result.cycles_missed)],
        ["attempts", str(ratio.total if ratio else 0)],
        ["committed", str(ratio.hits if ratio else 0)],
        ["end time (slots)", f"{result.end_time:.0f}"],
    ]
    print(render_table(["measure", "value"], rows, title="live session"))
    return 0


def _command_schemes() -> int:
    for name in sorted(SCHEME_FACTORIES):
        print(name)
    return 0


def _command_sizes(args: argparse.Namespace) -> int:
    params = ModelParameters().with_server(broadcast_size=args.broadcast_size)
    model = SizeModel(params.server)
    row = model.figure7_row(updates=args.updates, span=args.span)
    rows = [[scheme, f"{value:.2f}"] for scheme, value in sorted(row.items())]
    print(
        render_table(
            ["scheme", "size increase (%)"],
            rows,
            title=f"U={args.updates}, span={args.span}, D={args.broadcast_size}",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "experiments":
        return _command_experiments(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "listen":
        return _command_listen(args)
    if args.command == "schemes":
        return _command_schemes()
    if args.command == "sizes":
        return _command_sizes(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

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
    The parser and ``run`` of ``python -m repro.experiments``
    (:mod:`repro.experiments.__main__`): the paper's figures and tables.
``serve`` / ``listen``
    Live mode (:mod:`repro.live`): air a real broadcast over TCP /
    join one as a listening client.
``schemes``
    List the registered scheme labels.
``sizes``
    Print the analytic broadcast-size table (Figure 7 row) for the
    chosen operating point.

Each :class:`~repro.config.ModelParameters` flag is one row of
:data:`PARAMETER_FLAGS`, typed and defaulted by its dataclass field;
which ``run`` flags need or refuse which is :data:`NEEDS` and
:data:`REFUSES`, checked in one place before any parameter is built.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, get_args, get_type_hints

from repro.config import DEFAULTS, RETRY_POLICIES, ModelParameters
from repro.core.control import ReportSchedule
from repro.faults.presets import get_preset, preset_names
from repro.experiments import __main__ as experiments_main
from repro.experiments.render import render_table
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory
from repro.obs.analyze import TraceAnalyzer
from repro.obs.manifest import git_revision, write_manifest
from repro.obs.trace import JsonlSink, RingBufferSink, TraceLevel, Tracer
from repro.runtime import Simulation
from repro.server.sizing import SizeModel
from repro.shard.partition import PARTITIONERS
from repro.shard.scheme import CONSISTENCY_MODES

# fmt: off
#: One row per :class:`ModelParameters` flag: ``(flag, "section.field",
#: help)``, in the order ``run --help`` lists them.  Type, default and
#: choices come from the dataclass field; only ``--clients`` carries a
#: default of its own, because the dataclass's is 1.
PARAMETER_FLAGS = (
    ("--cycles", "sim.num_cycles", "broadcast cycles"),
    ("--warmup", "sim.warmup_cycles", "warm-up cycles"),
    ("--clients", "sim.num_clients", "client count", 4),
    ("--seed", "sim.seed", "RNG seed"),
    ("--broadcast-size", "server.broadcast_size", "items (D)"),
    ("--update-range", "server.update_range", None),
    ("--updates", "server.updates_per_cycle", "updates per cycle (U)"),
    ("--offset", "server.offset", None),
    ("--ops", "client.ops_per_query", "reads per query"),
    ("--read-range", "client.read_range", None),
    ("--cache-size", "client.cache_size", None),
    ("--think-time", "client.think_time", None),
    ("--retention", "server.retention", "S / V versions"),
    ("--slot-loss", "faults.slot_loss", "per-slot loss probability"),
    ("--burst-loss", "faults.burst_rate", "burst (fade) start probability"),
    ("--burst-length", "faults.burst_length", "mean burst length in slots"),
    ("--control-loss", "faults.control_loss", "control-bucket corruption probability"),
    ("--truncation", "faults.truncation", "cycle-truncation probability"),
    ("--report-delay", "faults.report_delay", "late control-decode probability"),
    ("--storm-rate", "faults.storm_rate",
     "per-cycle disconnect-storm start probability"),
    ("--fault-seed", "faults.seed", "fault RNG seed (default: derived from --seed)"),
    ("--retry-policy", "resilience.retry_policy",
     "retry scheduling between attempts (default: immediate)"),
    ("--backoff-base", "resilience.backoff_base", "first backoff delay (cycles)"),
    ("--backoff-cap", "resilience.backoff_cap", "max backoff delay (cycles)"),
    ("--backoff-jitter", "resilience.backoff_jitter",
     "jitter fraction added to each delay (seeded)"),
    ("--deadline", "resilience.deadline_cycles",
     "abandon a query after this many cycles (0 = never)"),
    ("--watchdog", "resilience.watchdog_attempts",
     "escalate after N consecutive aborted attempts (0 = off)"),
    ("--checkpoint", "resilience.checkpoint_interval",
     "checkpoint client state every N heard cycles (0 = off)"),
    ("--catchup-window", "resilience.catchup_window",
     "max outage length for incremental catch-up resync"),
    ("--crash-rate", "resilience.crash_rate", "per-cycle client crash probability"),
    ("--crash-length", "resilience.crash_length", "mean crash outage length in cycles"),
    ("--degrade-after", "resilience.degrade_after",
     "step the degradation ladder down after N faulty cycles (0 = off)"),
    ("--recover-after", "resilience.recover_after",
     "step the ladder back up after N clean cycles"),
    ("--resilience-seed", "resilience.seed",
     "resilience RNG seed (default: derived from --seed)"),
)

#: ``run``'s composition rule, checked by :func:`_refusal` before any
#: parameter is built; a flag is *set* when its value differs from the
#: parser default.  A flag that only one engine reads needs that
#: engine's flag ...
NEEDS = (
    ("--cohort-size", "--cohorts"),
    ("--partitioner", "--shards"),
    ("--shard-consistency", "--shards"),
    ("--cross-shard-fraction", "--shards"),
    ("--severity", "--preset"),
)

#: ... and an engine flag refuses the flags its engine cannot honour.
REFUSES = (
    ("--cohorts", ("--trace", "--verify", "--interleaved-server", "--shards"),
     "the cohort engine aggregates a single-channel population (use the "
     "discrete engine for per-event tooling and the sharded server)"),
    ("--shards", ("--interleaved-server",),
     "sharded channels drive plain listeners (run the single-channel "
     "server for 2PL interleaving)"),
    ("--preset",
     tuple(row[0] for row in PARAMETER_FLAGS if row[1].startswith("faults.")),
     "a preset replaces the individual fault knobs"),
)
# fmt: on


def _dest(flag: str) -> str:
    """The namespace attribute argparse derives from ``flag``."""
    return flag[2:].replace("-", "_")


def _add_parameters(parser, *sections: str) -> None:
    """Add the :data:`PARAMETER_FLAGS` rows of ``sections`` to ``parser``
    (a parser or an argument group)."""
    for flag, path, help_text, *own_default in PARAMETER_FLAGS:
        section, name = path.split(".")
        if section not in sections:
            continue
        part = getattr(DEFAULTS, section)
        hint = get_type_hints(type(part))[name]
        parser.add_argument(
            flag,
            # ``Optional[int]`` parses as ``int``, defaulting to ``None``.
            type=next(iter(get_args(hint)), hint),
            default=own_default[0] if own_default else getattr(part, name),
            choices=sorted(RETRY_POLICIES) if name == "retry_policy" else None,
            help=help_text,
        )


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
    _add_parameters(run, "sim", "server", "client")
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
    _add_parameters(fault, "faults")
    fault.add_argument(
        "--preset",
        default=None,
        choices=preset_names(),
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
    _add_parameters(
        run.add_argument_group(
            "resilience", "client recovery and retry (see repro.resilience)"
        ),
        "resilience",
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

    experiments_main.add_arguments(
        sub.add_parser(
            "experiments", help="regenerate the paper's figures and tables"
        )
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
    _add_parameters(serve, "sim", "server", "client")
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
    """Fold the :data:`PARAMETER_FLAGS` that ``args`` carries back into
    :class:`ModelParameters`; sections it lacks keep their defaults."""
    params = DEFAULTS
    for flag, path, *_ in PARAMETER_FLAGS:
        dest = _dest(flag)
        if hasattr(args, dest):
            section, name = path.split(".")
            part = replace(getattr(params, section), **{name: getattr(args, dest)})
            params = replace(params, **{section: part})
    return params


def _refusal(
    args: argparse.Namespace, defaults: argparse.Namespace
) -> Optional[str]:
    """The first :data:`NEEDS` / :data:`REFUSES` rule ``args`` breaks, as
    one line, or ``None``; ``defaults`` is the parser's ``run`` defaults."""

    def is_set(flag: str) -> bool:
        return getattr(args, _dest(flag)) != getattr(defaults, _dest(flag))

    for flag, engine in NEEDS:
        if is_set(flag) and not is_set(engine):
            return f"{flag} needs {engine}"
    for engine, flags, why in REFUSES:
        clash = [flag for flag in flags if is_set(flag)]
        if clash and is_set(engine):
            return f"{engine} is incompatible with {', '.join(clash)}: {why}"
    return None


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


def _open_trace(args, params, tracer: Tracer) -> None:
    """Write ``FILE.manifest.json``, then move ``tracer`` onto ``FILE``."""
    from repro import __version__

    manifest_path = write_manifest(
        f"{args.trace}.manifest.json",
        params=params,
        scheme=args.scheme,
        extra={"trace": args.trace, "trace_level": args.trace_level},
    )
    (held,) = tracer.sinks
    tracer.sinks = [JsonlSink(args.trace)]
    tracer.header(
        version=__version__,
        git_rev=git_revision(),
        scheme=args.scheme,
        seed=args.seed,
        manifest=str(manifest_path),
    )
    for event in held.events:
        tracer.sinks[0].write(event)


def _command_run(args: argparse.Namespace, defaults: argparse.Namespace) -> int:
    refusal = _refusal(args, defaults)
    if refusal is not None:
        print(refusal)
        return 2
    # ``--trace`` events wait in memory until :func:`_open_trace`, once
    # the engine accepted the run: a refused run writes no trace file.
    tracer = None
    if args.trace:
        tracer = Tracer(TraceLevel.parse(args.trace_level), sinks=[RingBufferSink()])
    # One handler for every engine: a bad parameter is a ValueError out
    # of parameter building or construction, never out of the run.
    try:
        params = _params_from(args)
        if args.preset is not None:
            params = get_preset(args.preset).apply(params, args.severity)
        schedule = ReportSchedule(
            per_cycle=args.reports_per_cycle, window=args.report_window
        )
        if args.cohorts:
            from repro.cohort import CohortSimulation

            report = _report_cohorts
            sim = CohortSimulation(
                params,
                scheme_factory=scheme_factory(args.scheme),
                report_schedule=schedule,
                cohort_size=args.cohort_size,
            )
        elif args.shards is not None:
            from repro.shard import ShardedSimulation

            report = _report_sharded
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
            sim = Simulation(
                params,
                scheme_factory=scheme_factory(args.scheme),
                report_schedule=schedule,
                keep_history=args.verify,
                interleaved_server=args.interleaved_server,
                tracer=tracer,
            )
    except ValueError as error:
        print(f"run: {error}")
        return 2
    if tracer is not None:
        _open_trace(args, params, tracer)
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


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.live.clock import ImmediateClock, RealTimeClock
    from repro.live.server import LiveBroadcastServer

    params = _params_from(args)
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
        ["data buckets heard", str(result.buckets_heard)],
        ["data buckets parsed", str(result.buckets_parsed)],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "run":
        return _command_run(args, parser.parse_args(["run"]))
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "experiments":
        return experiments_main.run(args)
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

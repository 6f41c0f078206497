"""Hot-path micro-suite: the per-event kernel under a magnifying glass.

Where :mod:`repro.obs.bench` times whole simulations to price the tracing
subsystem, this suite isolates the three layers the simulator spends its
life in, so a kernel change can be attributed to the layer it touched:

* ``dispatch``  -- a pure engine ping benchmark (processes trading
  timeouts, no broadcast machinery): events per second through
  :meth:`repro.sim.engine.Environment.run`;
* ``programs``  -- :class:`repro.server.broadcast.ProgramBuilder` builds
  per second while a real :class:`TransactionEngine` advances the
  database between builds, for both the flat and the overflow layout
  (and with the incremental cycle build disabled, so the copy-on-write
  win is measured, not asserted);
* ``clients``   -- full simulations at 1/10/100 clients: cycles per
  second and events per second, the end-to-end number the ROADMAP's
  "fast as the hardware allows" is judged by;
* ``profile``   -- one run under :mod:`cProfile`, top-N functions by
  cumulative time, so the next optimization pass starts from evidence.

Run as a module::

    python -m repro.obs.hotpath --out results/BENCH_hotpath.json
    python -m repro.obs.hotpath --quick --against results/BENCH_hotpath.json

``--before FILE`` embeds a previously captured payload under ``before``
and records honest speedup ratios next to the fresh numbers.
``--against FILE --max-regression 0.2`` turns the dispatch events/sec
comparison into an exit code for CI.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.obs.manifest import git_revision, package_versions

#: Suite layout: (clients tried by the end-to-end benchmark).
CLIENT_COUNTS = (1, 10, 100)


def _best_of(repeats: int, *lanes) -> List[Dict[str, float]]:
    """The fastest sample of each lane.  Lanes given together alternate
    within every round, so an in-process ratio between them brackets the
    same noise window -- a CPU spike landing on one lane's consecutive
    repeats would otherwise fake a regression either way."""
    best: List[Optional[Dict[str, float]]] = [None] * len(lanes)
    for _ in range(max(1, repeats)):
        for index, lane in enumerate(lanes):
            sample = lane()
            if best[index] is None or sample["seconds"] < best[index]["seconds"]:
                best[index] = sample
    return best


# -- dispatch: the bare engine ---------------------------------------------


def _dispatch_once(processes: int, hops: int) -> Dict[str, float]:
    """Ping benchmark: ``processes`` generators each awaiting ``hops``
    timeouts with co-prime delays (so the heap stays busy and events
    interleave rather than batching at one instant)."""
    from repro.sim.engine import Environment

    env = Environment()

    def ping(env, delay):
        for _ in range(hops):
            yield env.timeout(delay)

    for i in range(processes):
        env.process(ping(env, 1.0 + (i % 7) * 0.25))
    gc.collect()
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "events": float(env.events_processed),
        "events_per_sec": env.events_processed / elapsed if elapsed else 0.0,
    }


def bench_dispatch(repeats: int, processes: int = 64, hops: int = 2000) -> Dict[str, float]:
    (best,) = _best_of(repeats, lambda: _dispatch_once(processes, hops))
    best["processes"] = float(processes)
    best["hops"] = float(hops)
    return best


# -- programs: the per-cycle builder ---------------------------------------


def _programs_once(
    cycles: int,
    organization: Optional[str],
    incremental: bool,
    columnar: bool = True,
    db_size: Optional[int] = None,
) -> Dict[str, float]:
    """Time ``cycles`` builder invocations while a real engine advances
    the database between them (the server loop minus the channel).

    ``columnar=False`` runs the dict-backed reference item-state store
    (the pre-refactor path) so the columnar speedup is measured within
    one payload, on one machine.  ``db_size`` overrides the item count
    (the ``bigdb`` lane airs a 10^5-item database)."""
    from dataclasses import replace

    from repro.core.control import BroadcastRequirements
    from repro.server.substrate import build_substrate

    params = DEFAULTS.server
    if db_size is not None:
        params = replace(params, broadcast_size=db_size)
    requirements = BroadcastRequirements(
        needs_old_versions=organization is not None,
        organization=organization or "overflow",
    )
    substrate = build_substrate(
        params, requirements, random.Random(11), columnar=columnar
    )
    engine, builder = substrate.engine, substrate.builder
    builder.incremental = incremental

    gc.collect()
    outcome = None
    built = 0.0
    for cycle in range(1, cycles + 1):
        start = time.perf_counter()
        builder.build(cycle, outcome)
        built += time.perf_counter() - start
        outcome = engine.run_cycle(cycle)
    return {
        "seconds": built,
        "builds": float(cycles),
        "builds_per_sec": cycles / built if built else 0.0,
    }


def bench_programs(
    repeats: int, cycles: int = 120, bigdb_size: int = 100_000
) -> Dict[str, object]:
    out: Dict[str, object] = {"cycles": cycles}
    variants = [("flat", None), ("overflow", "overflow"), ("clustered", "clustered")]
    # The columnar lane and its dict-reference twin go in together: their
    # in-process ratio is the CI columnar-regression gate.
    for label, organization in variants[:2]:
        out[label], out[f"{label}_dict"] = _best_of(
            repeats,
            lambda: _programs_once(cycles, organization, incremental=True),
            lambda: _programs_once(
                cycles, organization, incremental=True, columnar=False
            ),
        )
    (out["clustered"],) = _best_of(
        repeats, lambda: _programs_once(cycles, "clustered", incremental=True)
    )
    # The same build loop with the persistent index switched off: the
    # copy-on-write win is measured against the full rebuild, on the
    # same machine, in the same process.
    for label, organization in variants[:2]:
        (out[f"{label}_full_rebuild"],) = _best_of(
            repeats,
            lambda: _programs_once(cycles, organization, incremental=False),
        )
    # The item-count scale lane the columnar store unlocks (ROADMAP
    # item 4): overflow builds over a 10^5-item database, columnar and
    # dict reference alternating round by round.
    bigdb_cycles = max(6, cycles // 10)
    out["bigdb"], out["bigdb_dict"] = _best_of(
        repeats,
        lambda: _programs_once(
            bigdb_cycles, "overflow", incremental=True, db_size=bigdb_size
        ),
        lambda: _programs_once(
            bigdb_cycles, "overflow", incremental=True, columnar=False,
            db_size=bigdb_size,
        ),
    )
    out["bigdb"]["db_size"] = float(bigdb_size)
    out["bigdb_dict"]["db_size"] = float(bigdb_size)
    return out


# -- codec: the live wire format -------------------------------------------


def _codec_once(
    cycles: int, organization: Optional[str], sgt: bool = False
) -> Dict[str, float]:
    """Time encode + decode of real builder programs: the per-cycle wire
    work of the live serving mode (`repro.live`), measured against the
    same server loop the ``programs`` lanes drive."""
    from repro.core.control import BroadcastRequirements
    from repro.live.codec import CycleCodec, WireProfile
    from repro.server.substrate import build_substrate

    params = DEFAULTS.server
    requirements = BroadcastRequirements(
        needs_old_versions=organization is not None,
        organization=organization or "overflow",
        needs_sgt=sgt,
    )
    substrate = build_substrate(params, requirements, random.Random(11))
    engine, builder = substrate.engine, substrate.builder
    codec = CycleCodec(WireProfile.from_params(params, requirements))

    gc.collect()
    outcome = None
    encoding = decoding = 0.0
    wire_bytes = 0
    for cycle in range(1, cycles + 1):
        program = builder.build(cycle, outcome)
        start = time.perf_counter()
        frames = codec.encode_cycle(program, 0)
        encoding += time.perf_counter() - start
        wire_bytes += sum(len(frame) for frame in frames)
        start = time.perf_counter()
        codec.decode_cycle(frames)
        decoding += time.perf_counter() - start
        outcome = engine.run_cycle(cycle)
    return {
        "seconds": encoding,
        "encodes": float(cycles),
        "encodes_per_sec": cycles / encoding if encoding else 0.0,
        "decodes_per_sec": cycles / decoding if decoding else 0.0,
        "bytes_per_cycle": wire_bytes / cycles,
    }


def bench_codec(repeats: int, cycles: int = 60) -> Dict[str, object]:
    """Encode/decode throughput over the three wire layouts the live
    mode airs: flat (invalidation), overflow multiversion, and the
    SGT-augmented control segment."""
    out: Dict[str, object] = {"cycles": cycles}
    variants = [
        ("flat", None, False),
        ("overflow", "overflow", False),
        ("sgt", None, True),
    ]
    for label, organization, needs_sgt in variants:
        (out[label],) = _best_of(
            repeats, lambda: _codec_once(cycles, organization, sgt=needs_sgt)
        )
    return out


# -- clients: the end-to-end simulator -------------------------------------


def _clients_params(num_clients: int, cycles: int) -> ModelParameters:
    return DEFAULTS.with_sim(
        num_cycles=cycles,
        warmup_cycles=5,
        num_clients=num_clients,
        seed=11,
    )


def _timed_kernel_run(sim) -> Dict[str, float]:
    """Wall clock, events and cycles of one event-kernel run."""
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "events": float(sim.env.events_processed),
        "cycles": float(result.cycles_completed),
        "events_per_sec": sim.env.events_processed / elapsed if elapsed else 0.0,
        "cycles_per_sec": result.cycles_completed / elapsed if elapsed else 0.0,
    }


def _clients_once(
    num_clients: int, cycles: int, columnar: bool = True
) -> Dict[str, float]:
    from repro.experiments.schemes import scheme_factory
    from repro.runtime import Simulation

    return _timed_kernel_run(
        Simulation(
            _clients_params(num_clients, cycles),
            scheme_factory=scheme_factory("inval"),
            columnar=columnar,
        )
    )


def bench_clients(repeats: int, cycles: int = 60) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for count in CLIENT_COUNTS:
        # The 100-client point is the slow one; one repeat is plenty there.
        rounds = repeats if count < 100 else 1
        if count == 10:
            # The dict-reference twin rides along for the in-process
            # end-to-end comparison (same rationale as the program lanes).
            out["10"], out["10_dict"] = _best_of(
                rounds,
                lambda: _clients_once(10, cycles),
                lambda: _clients_once(10, cycles, columnar=False),
            )
        else:
            (out[str(count)],) = _best_of(
                rounds, lambda: _clients_once(count, cycles)
            )
    return out


# -- cohort: the population engine -----------------------------------------


def _cohort_once(num_clients: int, cycles: int) -> Dict[str, float]:
    """One cohort-engine run at ``num_clients``: the same workload as the
    ``clients`` suite, advanced client-major instead of through the
    kernel heap.  ``steps`` (generator resumptions) is the cohort
    analogue of the kernel's events-processed figure."""
    from repro.cohort import CohortSimulation
    from repro.experiments.schemes import scheme_factory

    sim = CohortSimulation(
        _clients_params(num_clients, cycles),
        scheme_factory=scheme_factory("inval"),
    )
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "clients": float(num_clients),
        "cycles": float(result.cycles_completed),
        "steps": float(sim.steps),
        "clients_per_sec": num_clients / elapsed if elapsed else 0.0,
        "steps_per_sec": sim.steps / elapsed if elapsed else 0.0,
    }


def bench_cohort(
    repeats: int, num_clients: int = 1000, cycles: int = 60
) -> Dict[str, float]:
    (best,) = _best_of(repeats, lambda: _cohort_once(num_clients, cycles))
    return best


# -- shard: the multi-channel server ----------------------------------------


def _shard_once(num_shards: int, num_clients: int, cycles: int) -> Dict[str, float]:
    """One sharded run: the ``clients`` workload on the K-channel server.

    At K=1 the sharded runtime is bit-identical to the single-channel
    simulator (the shard oracle pins this), so the event count matches
    ``_clients_once`` exactly and the wall-clock delta is pure seam
    overhead."""
    from repro.experiments.schemes import scheme_factory
    from repro.shard.runtime import ShardedSimulation

    sim = ShardedSimulation(
        _clients_params(num_clients, cycles),
        scheme_factory("inval"),
        num_shards=num_shards,
    )
    return {**_timed_kernel_run(sim), "shards": float(num_shards)}


def bench_shard(
    repeats: int, num_clients: int = 10, cycles: int = 60
) -> Dict[str, object]:
    """K=1 (seam-overhead lane) and K=4 (multi-channel lane), plus the
    single-channel run the K=1 lane is priced against."""
    out: Dict[str, object] = {}
    for label, thunk in (
        ("single", lambda: _clients_once(num_clients, cycles)),
        ("k1", lambda: _shard_once(1, num_clients, cycles)),
        ("k4", lambda: _shard_once(4, num_clients, cycles)),
    ):
        (out[label],) = _best_of(repeats, thunk)
    single = out["single"]["seconds"]
    if single:
        out["k1_overhead"] = round(out["k1"]["seconds"] / single - 1.0, 4)
    return out


# -- profile: where the time actually goes ---------------------------------


def bench_profile(top: int = 15, cycles: int = 60) -> List[Dict[str, object]]:
    from repro.experiments.schemes import scheme_factory
    from repro.runtime import Simulation

    sim = Simulation(
        _clients_params(10, cycles), scheme_factory=scheme_factory("inval")
    )
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    rows: List[Dict[str, object]] = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    ):
        filename, lineno, name = func
        if "hotpath.py" in filename or filename.startswith("<"):
            continue
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}:{name}",
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
        if len(rows) >= top:
            break
    return rows


# -- assembly ---------------------------------------------------------------


def run_suite(
    repeats: int = 3,
    quick: bool = False,
    profile_top: int = 15,
    progress: Optional[callable] = None,
) -> Dict[str, object]:
    """Run every micro-benchmark and assemble the JSON payload."""

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    hops = 400 if quick else 2000
    cycles = 30 if quick else 120
    client_cycles = 20 if quick else 60

    say("dispatch: engine ping ...")
    dispatch = bench_dispatch(repeats, hops=hops)
    say(f"  {dispatch['events_per_sec']:,.0f} events/s")
    say("programs: builder loop (columnar + dict reference + bigdb) ...")
    programs = bench_programs(
        repeats, cycles=cycles, bigdb_size=20_000 if quick else 100_000
    )
    say(
        f"  flat {programs['flat']['builds_per_sec']:,.1f} builds/s "
        f"(dict {programs['flat_dict']['builds_per_sec']:,.1f})  "
        f"bigdb {programs['bigdb']['builds_per_sec']:,.1f} builds/s "
        f"(dict {programs['bigdb_dict']['builds_per_sec']:,.1f})"
    )
    say("clients: end-to-end at 1/10/100 ...")
    clients = bench_clients(repeats, cycles=client_cycles)
    for count, sample in clients.items():
        say(
            f"  {count:>3} clients: {sample['cycles_per_sec']:,.1f} cycles/s  "
            f"{sample['events_per_sec']:,.0f} events/s"
        )
    say("cohort: population engine ...")
    cohort = bench_cohort(repeats, cycles=client_cycles)
    say(
        f"  {cohort['clients']:,.0f} clients: "
        f"{cohort['clients_per_sec']:,.0f} clients/s  "
        f"{cohort['steps_per_sec']:,.0f} steps/s"
    )
    say("shard: multi-channel server at K=1/K=4 ...")
    shard = bench_shard(repeats, cycles=client_cycles)
    say(
        f"  K=1 overhead {shard.get('k1_overhead', 0.0):+.1%}  "
        f"K=4 {shard['k4']['events_per_sec']:,.0f} events/s"
    )
    say("codec: live wire format encode/decode ...")
    codec = bench_codec(repeats, cycles=client_cycles)
    say(
        f"  flat {codec['flat']['encodes_per_sec']:,.1f} enc/s  "
        f"overflow {codec['overflow']['encodes_per_sec']:,.1f} enc/s  "
        f"sgt {codec['sgt']['encodes_per_sec']:,.1f} enc/s"
    )
    say("profile: cProfile top functions ...")
    profile = bench_profile(top=profile_top, cycles=client_cycles)

    return {
        "bench": "repro.obs.hotpath",
        "git_rev": git_revision(),
        "packages": package_versions(),
        "platform": platform.platform(),
        "repeats": repeats,
        "quick": quick,
        "suites": {
            "dispatch": dispatch,
            "programs": programs,
            "clients": clients,
            "cohort": cohort,
            "shard": shard,
            "codec": codec,
            "profile": profile,
        },
    }


def _rate(payload: Dict[str, object], *path: str) -> Optional[float]:
    node: object = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def attach_before(payload: Dict[str, object], before: Dict[str, object]) -> None:
    """Embed ``before`` and record after/before speedup ratios."""
    payload["before"] = before
    speedups: Dict[str, float] = {}
    # Each speedup is labelled by its path under "suites", joined by "_".
    paths = [
        ("dispatch", "events_per_sec"),
        ("programs", "flat", "builds_per_sec"),
        ("programs", "overflow", "builds_per_sec"),
        *(("clients", str(count), "events_per_sec") for count in CLIENT_COUNTS),
        ("clients", "10", "cycles_per_sec"),
        ("cohort", "clients_per_sec"),
        ("shard", "k4", "events_per_sec"),
        ("codec", "flat", "encodes_per_sec"),
        ("codec", "overflow", "encodes_per_sec"),
    ]
    for path in paths:
        now = _rate(payload, "suites", *path)
        then = _rate(before, "suites", *path)
        if now is not None and then:
            speedups["_".join(path)] = round(now / then, 4)
    payload["speedup_vs_before"] = speedups


def columnar_regressions(
    payload: Dict[str, object], max_regression: float
) -> List[str]:
    """CI gate for the columnar refactor: each columnar lane must not
    fall more than ``max_regression`` below its dict-reference twin,
    measured back-to-back in the same process (machine-independent).
    Returns the violated checks (empty = pass)."""
    failures: List[str] = []
    lanes = [
        (f"{lane} builds/sec", "programs", lane, "builds_per_sec")
        for lane in ("flat", "overflow", "bigdb")
    ] + [("10-client cycles/sec", "clients", "10", "cycles_per_sec")]
    for label, suite, lane, rate in lanes:
        now = _rate(payload, "suites", suite, lane, rate)
        ref = _rate(payload, "suites", suite, f"{lane}_dict", rate)
        if now is None or not ref:
            continue
        floor = ref * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"columnar {label} below dict reference: {now:,.1f} < "
                f"{floor:,.1f} (dict {ref:,.1f}, allowed -{max_regression:.0%})"
            )
    return failures


def compare_against(
    payload: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """CI gate: the dispatch and end-to-end events/sec must not fall more
    than ``max_regression`` below the committed baseline.  Returns the
    list of violated checks (empty = pass)."""
    failures: List[str] = []
    for label, path in (
        ("dispatch events/sec", ("suites", "dispatch", "events_per_sec")),
        ("10-client events/sec", ("suites", "clients", "10", "events_per_sec")),
        # Codec lanes skip cleanly against pre-live baselines (missing
        # entries are not failures), so old payloads stay valid gates.
        ("codec flat encodes/sec", ("suites", "codec", "flat", "encodes_per_sec")),
        (
            "codec overflow encodes/sec",
            ("suites", "codec", "overflow", "encodes_per_sec"),
        ),
    ):
        now, then = _rate(payload, *path), _rate(baseline, *path)
        if now is None or not then:
            continue
        floor = then * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"{label} regressed: {now:,.0f} < {floor:,.0f} "
                f"(baseline {then:,.0f}, allowed -{max_regression:.0%})"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.hotpath",
        description="Micro-benchmark the simulator's per-event hot paths.",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="rounds per benchmark; best kept"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke runs"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output JSON path (default: BENCH_hotpath.json)",
    )
    parser.add_argument(
        "--before",
        default=None,
        metavar="FILE",
        help="embed this earlier payload and record speedup ratios",
    )
    parser.add_argument(
        "--against",
        default=None,
        metavar="FILE",
        help="baseline JSON to compare events/sec against (CI gate)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="allowed events/sec drop vs --against (default: 0.2)",
    )
    parser.add_argument(
        "--max-columnar-regression",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fail if any columnar lane is more than this fraction slower "
            "than its dict-reference twin in the same payload (target: 0.02)"
        ),
    )
    parser.add_argument(
        "--max-before-regression",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "with --before: fail if any recorded speedup ratio falls "
            "below 1 minus this fraction (hard regression gate)"
        ),
    )
    parser.add_argument(
        "--max-shard-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fail if the K=1 sharded run is more than this fraction "
            "slower than the single-channel run (target: 0.02)"
        ),
    )
    parser.add_argument(
        "--profile-top", type=int, default=15, help="profile rows kept"
    )
    args = parser.parse_args(argv)

    payload = run_suite(
        repeats=args.repeats,
        quick=args.quick,
        profile_top=args.profile_top,
        progress=print,
    )

    before_failures: List[str] = []
    if args.before:
        with open(args.before, "r", encoding="utf-8") as handle:
            attach_before(payload, json.load(handle))
        for label, ratio in sorted(payload["speedup_vs_before"].items()):
            print(f"  speedup {label}: {ratio:.2f}x")
        if args.max_before_regression is not None:
            floor = 1.0 - args.max_before_regression
            before_failures = [
                f"{label} regressed vs --before: {ratio:.3f}x < {floor:.3f}x"
                for label, ratio in sorted(
                    payload["speedup_vs_before"].items()
                )
                if ratio < floor
            ]

    out = args.out or "BENCH_hotpath.json"
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")

    # Every requested gate is evaluated so one failure does not mask
    # another; the exit code aggregates them at the end.
    all_failures: List[str] = list(before_failures)

    if args.max_columnar_regression is not None:
        failures = columnar_regressions(payload, args.max_columnar_regression)
        all_failures.extend(failures)
        if not failures:
            print(
                f"columnar lanes within {args.max_columnar_regression:.0%} "
                "of their dict-reference twins"
            )

    if args.max_shard_overhead is not None:
        overhead = payload["suites"]["shard"].get("k1_overhead")
        if overhead is not None and overhead > args.max_shard_overhead:
            all_failures.append(
                f"K=1 sharded overhead {overhead:+.1%} exceeds "
                f"{args.max_shard_overhead:.0%} of the single-channel run"
            )
        else:
            print(
                f"K=1 sharded overhead {overhead:+.1%} "
                f"(allowed: {args.max_shard_overhead:.0%})"
            )

    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_against(payload, baseline, args.max_regression)
        all_failures.extend(failures)
        if not failures:
            print(
                f"within {args.max_regression:.0%} of baseline "
                f"{args.against} ({baseline.get('git_rev', '?')})"
            )

    if all_failures:
        for failure in all_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

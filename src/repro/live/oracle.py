"""Sim-vs-live differential oracle.

Runs the same configuration twice -- once through the event-driven
:class:`~repro.runtime.Simulation`, once over *real sockets* on
loopback (:class:`~repro.live.server.LiveBroadcastServer` airing
encoded cycles to :class:`~repro.live.client.LiveClient` listeners with
the deterministic :class:`~repro.live.clock.ImmediateClock`) -- and
demands agreement:

**Exact lanes** (lossless wire; faults, when on, are the client-side
pipelines the DES runs use): the merged live registries must equal the
discrete run's *exactly* -- the same criterion as
:mod:`repro.cohort.oracle`, extended across a codec round trip and a
TCP hop.  Any wire-format lossiness (a mis-sized field, a dropped
report, a version off by one) surfaces as a counter mismatch here.

**Chaos lane**: the same configuration behind a seeded
:class:`~repro.live.chaos.ChaosProxy` mangling the byte stream.  Frame
damage is attributed by the proxy's own fault schedule (not the DES
per-client streams -- arrival order is an OS property), so this lane
asserts the protocols' *contracts* instead of registry equality: every
client finishes, the server airs every cycle, progress is made, and
every committed read-only transaction passes the ground-truth
correctness criterion (:func:`repro.verify.check_transaction`) against
the server's version chains and operation history.

Usage::

    python -m repro.live.oracle                    # default matrix
    python -m repro.live.oracle --schemes sgt+cache --seeds 7
    python -m repro.live.oracle --chaos off --artifacts DIR

Exits non-zero if any cell fails; a runtime budget caps the matrix
(remaining cells are reported as skipped, not failed).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cohort.oracle import FAULT_KNOBS, oracle_params, registry_delta
from repro.config import FaultParameters, ModelParameters
from repro.experiments.schemes import scheme_factory
from repro.faults.injector import FaultInjector
from repro.live.chaos import ChaosProxy
from repro.live.client import LiveClient, LiveClientResult
from repro.live.server import LiveBroadcastServer
from repro.runtime import Simulation
from repro.seeds import SeedOrder
from repro.stats.metrics import MetricsRegistry
from repro.verify import violations

#: One scheme per resync family the live client implements:
#: invalidation, multiversion, and serialization-graph testing.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "inval+cache",
    "multiversion+cache",
    "sgt+cache",
)
DEFAULT_SEEDS: Tuple[int, ...] = (7, 11, 23)


async def run_live(
    params: ModelParameters,
    scheme: str,
    *,
    faults: bool,
    keep_history: bool = False,
    chaos: Optional[FaultParameters] = None,
) -> Tuple[LiveBroadcastServer, List[LiveClientResult], MetricsRegistry]:
    """One live run on loopback; returns (server, results, merged metrics).

    Every stream comes off :class:`~repro.seeds.SeedOrder`, so the exact
    lanes share every random stream with their DES twin.
    """
    factory = scheme_factory(scheme)
    probe = factory()
    num_clients = params.sim.num_clients

    seeds = SeedOrder(params.sim.seed)
    engine_rng = seeds.engine_rng()
    fault_metrics = MetricsRegistry()
    injector: Optional[FaultInjector] = None
    if faults and params.faults.active:
        injector = FaultInjector(params.faults, params.sim, fault_metrics)
    specs = list(seeds.clients(num_clients, injector=injector))

    server = LiveBroadcastServer(
        params,
        probe.requirements(),
        scheme_label=scheme,
        engine_rng=engine_rng,
        keep_history=keep_history,
    )
    await server.start()
    assert server.port is not None
    proxy: Optional[ChaosProxy] = None
    connect_port = server.port
    if chaos is not None:
        proxy = ChaosProxy(
            server.host,
            server.port,
            chaos,
            num_cycles=params.sim.num_cycles,
            seed=params.sim.seed,
        )
        await proxy.start()
        assert proxy.port is not None
        connect_port = proxy.port

    clients = [
        LiveClient(
            server.host,
            connect_port,
            scheme=factory(),
            client_id=spec.client_id,
            rng=spec.rng,
            pipeline=spec.pipeline,
            disconnect=spec.disconnect,
            params=params,
        )
        for spec in specs
    ]
    try:
        tasks = [asyncio.ensure_future(client.run()) for client in clients]
        try:
            await server.wait_for_clients(num_clients)
            await server.run()
            results = await asyncio.wait_for(asyncio.gather(*tasks), 60.0)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
    finally:
        await server.stop()
        if proxy is not None:
            await proxy.stop()

    merged = MetricsRegistry()
    merged.merge(server.metrics)
    merged.merge(fault_metrics)
    for result in results:
        merged.merge(result.metrics)
    return server, list(results), merged


def compare_exact_cell(
    scheme: str,
    seed: int,
    faults: bool,
    *,
    clients: int = 3,
    num_cycles: int = 30,
) -> Dict:
    """Run one (scheme, seed, faults) cell sim and live, then diff."""
    params = oracle_params(clients, seed, faults, num_cycles=num_cycles)
    factory = scheme_factory(scheme)
    t0 = time.perf_counter()
    discrete = Simulation(params, scheme_factory=factory).run()
    t1 = time.perf_counter()
    server, _results, merged = asyncio.run(
        run_live(params, scheme, faults=faults)
    )
    t2 = time.perf_counter()
    mismatches = registry_delta(discrete.metrics, merged)
    if discrete.cycles_completed != server.backend.cycles_completed:
        mismatches.insert(
            0,
            {
                "metric": "cycles_completed",
                "kind": "result",
                "discrete": discrete.cycles_completed,
                "live": server.backend.cycles_completed,
            },
        )
    return {
        "lane": "exact",
        "scheme": scheme,
        "clients": clients,
        "seed": seed,
        "faults": faults,
        "num_cycles": num_cycles,
        "discrete_seconds": t1 - t0,
        "live_seconds": t2 - t1,
        "total_attempts": discrete.total_attempts,
        "mismatches": mismatches,
    }


def check_chaos_cell(
    scheme: str,
    seed: int,
    *,
    clients: int = 3,
    num_cycles: int = 30,
) -> Dict:
    """One chaos-proxy cell: liveness + serializability contracts."""
    params = oracle_params(clients, seed, faults=False, num_cycles=num_cycles)
    chaos = FaultParameters(**FAULT_KNOBS)
    t0 = time.perf_counter()
    server, results, _merged = asyncio.run(
        run_live(params, scheme, faults=False, keep_history=True, chaos=chaos)
    )
    elapsed = time.perf_counter() - t0
    problems: List[Dict] = []
    if server.backend.cycles_completed != num_cycles:
        problems.append(
            {
                "contract": "server airs every cycle",
                "expected": num_cycles,
                "got": server.backend.cycles_completed,
            }
        )
    if len(results) != clients:
        problems.append(
            {
                "contract": "every client finishes",
                "expected": clients,
                "got": len(results),
            }
        )
    attempts = sum(
        len(result.client.completed) for result in results
    )
    heard = sum(result.cycles_heard for result in results)
    if attempts == 0:
        problems.append(
            {"contract": "progress under chaos", "expected": "> 0 attempts",
             "got": 0}
        )
    bad = violations(
        [result.client for result in results],
        server.database,
        server.engine.history,
    )
    if bad:
        problems.append(
            {
                "contract": "committed readsets are consistent",
                "expected": "0 violations",
                "got": [str(txn.txn_id) for txn in bad[:8]],
            }
        )
    return {
        "lane": "chaos",
        "scheme": scheme,
        "clients": clients,
        "seed": seed,
        "num_cycles": num_cycles,
        "live_seconds": elapsed,
        "total_attempts": attempts,
        "cycles_heard": heard,
        "cycles_missed": sum(r.cycles_missed for r in results),
        "mismatches": problems,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.oracle",
        description="Differential oracle: a loopback live broadcast must "
        "match its DES twin exactly (lossless lanes) and keep the "
        "correctness contracts under byte-stream chaos.",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=list(DEFAULT_SCHEMES), metavar="S"
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS),
        metavar="SEED",
    )
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--cycles", type=int, default=30)
    parser.add_argument(
        "--faults",
        choices=["both", "on", "off"],
        default="both",
        help="exact lanes: client-side fault pipelines on, off, or both",
    )
    parser.add_argument(
        "--chaos",
        choices=["on", "off"],
        default="on",
        help="also run the chaos-proxy contract lane",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=600.0,
        help="runtime budget; remaining cells are skipped, not failed",
    )
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        help="directory for per-failure JSON dumps",
    )
    return parser


def _cell_name(report: Dict) -> str:
    scheme = report["scheme"].replace("/", "_")
    if report["lane"] == "chaos":
        return f"chaos-{scheme}-s{report['seed']}.json"
    mode = "faults" if report["faults"] else "clean"
    return f"exact-{scheme}-s{report['seed']}-{mode}.json"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    fault_modes = {"both": (False, True), "on": (True,), "off": (False,)}[
        args.faults
    ]
    cells: List[Tuple] = [
        ("exact", scheme, seed, faults)
        for scheme in args.schemes
        for faults in fault_modes
        for seed in args.seeds
    ]
    if args.chaos == "on":
        cells += [
            ("chaos", scheme, seed, None)
            for scheme in args.schemes
            for seed in args.seeds
        ]
    started = time.perf_counter()
    failures: List[Dict] = []
    run = 0
    skipped = 0
    for lane, scheme, seed, faults in cells:
        if time.perf_counter() - started > args.max_seconds:
            skipped += 1
            continue
        if lane == "exact":
            report = compare_exact_cell(
                scheme, seed, faults,
                clients=args.clients, num_cycles=args.cycles,
            )
            label = f"faults={'on' if faults else 'off':<3}"
        else:
            report = check_chaos_cell(
                scheme, seed, clients=args.clients, num_cycles=args.cycles
            )
            label = (
                f"missed={report['cycles_missed']:<4}"
            )
        run += 1
        ok = not report["mismatches"]
        tag = "ok" if ok else "FAIL"
        print(
            f"[{tag}] {lane:<5} {scheme:<20} seed={seed:<4} {label} "
            f"attempts={report['total_attempts']:<5} "
            f"({report['live_seconds']:.2f}s live)"
        )
        if not ok:
            failures.append(report)
            for mismatch in report["mismatches"][:8]:
                print(f"       {mismatch}")
            if args.artifacts is not None:
                args.artifacts.mkdir(parents=True, exist_ok=True)
                (args.artifacts / _cell_name(report)).write_text(
                    json.dumps(report, indent=2, sort_keys=True, default=str)
                )
    verdict = "PASS" if not failures else "FAIL"
    print(
        f"{verdict}: {run - len(failures)}/{run} cells clean"
        + (f", {skipped} skipped (runtime budget)" if skipped else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

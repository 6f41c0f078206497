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

Run the matrix with ``python -m repro.oracle live`` (:mod:`repro.oracle`).
"""

from __future__ import annotations

import asyncio
import itertools
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cohort.oracle import (
    FAULT_KNOBS,
    oracle_params,
    registry_delta,
    value_delta,
)
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
DEFAULT_CLIENTS: Tuple[int, ...] = (3,)
DEFAULT_CYCLES = 30


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
            keep_history=keep_history,
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
    num_cycles: int = DEFAULT_CYCLES,
) -> Dict:
    """Run one (scheme, seed, faults) cell sim and live, then diff."""
    params = oracle_params(clients, seed, faults, num_cycles=num_cycles)
    discrete = Simulation(params, scheme_factory=scheme_factory(scheme)).run()
    server, _results, merged = asyncio.run(
        run_live(params, scheme, faults=faults)
    )
    return {
        "lane": "exact",
        "scheme": scheme,
        "clients": clients,
        "seed": seed,
        "faults": faults,
        "num_cycles": num_cycles,
        "total_attempts": discrete.total_attempts,
        "mismatches": value_delta(
            "cycles_completed",
            "result",
            discrete.cycles_completed,
            server.backend.cycles_completed,
        )
        + registry_delta(discrete.metrics, merged),
    }


def check_chaos_cell(
    scheme: str,
    seed: int,
    *,
    clients: int = 3,
    num_cycles: int = DEFAULT_CYCLES,
) -> Dict:
    """One chaos-proxy cell: liveness + serializability contracts."""
    params = oracle_params(clients, seed, faults=False, num_cycles=num_cycles)
    chaos = FaultParameters(**FAULT_KNOBS)
    server, results, _merged = asyncio.run(
        run_live(params, scheme, faults=False, keep_history=True, chaos=chaos)
    )
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
        "total_attempts": attempts,
        "cycles_heard": heard,
        "cycles_missed": sum(r.cycles_missed for r in results),
        "mismatches": problems,
    }


def matrix(
    schemes: Sequence[str],
    seeds: Sequence[int],
    clients: Sequence[int],
    cycles: int,
) -> Iterator[Tuple[str, Callable[[], Dict]]]:
    """The exact lanes (faults off, then on), then the chaos lane."""
    for scheme, faults, seed, n in itertools.product(
        schemes, (False, True), seeds, clients
    ):
        yield (
            f"exact {scheme} N={n} seed={seed} faults={'on' if faults else 'off'}",
            partial(
                compare_exact_cell, scheme, seed, faults,
                clients=n, num_cycles=cycles,
            ),
        )
    for scheme, seed, n in itertools.product(schemes, seeds, clients):
        yield (
            f"chaos {scheme} N={n} seed={seed}",
            partial(check_chaos_cell, scheme, seed, clients=n, num_cycles=cycles),
        )

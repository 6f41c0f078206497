"""The recovery differential oracle: crashes never buy a bad commit.

Resilience earns its keep only if the recovery machinery is *safe*: a
client that crashes, restores a checkpoint, catches up from the
w-window, or degrades its cache must still never commit a readset the
ground-truth oracle of :mod:`repro.verify` rejects.  This module pins
that down as a runnable matrix -- scheme x fault mix x retry policy x
seed -- with four checks per cell:

1. **serializability** -- zero :func:`repro.verify.violations` among all
   committed transactions of the crashed, faulted run;
2. **liveness** -- no client stalls (a restarted client with runway left
   must at least *attempt* again), and some crashed client commits after
   its last crash (recovery completes end to end, not just survives);
3. **convergence** -- the run keeps a configurable fraction of the
   commit volume of its never-crashed twin (same workload and fault
   seeds, ``crash_rate=0``);
4. **replay** -- rebuilding and rerunning the exact configuration yields
   a bit-identical metrics snapshot (recovery stays deterministic).

``python -m repro.oracle resilience`` runs the CI smoke matrix
(:mod:`repro.oracle`), then :func:`check` judges the finished matrix:
group liveness across seeds, and no vacuous pass.

The full-depth matrix (5 schemes x 3+ fault mixes x 10+ seeds) lives in
``tests/integration/test_resilience_oracle.py`` and is built from these
same helpers.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.config import ModelParameters
from repro.core.control import ReportSchedule
from repro.core.transaction import TransactionStatus
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation
from repro.stats import names as metric_names
from repro.verify import violations

#: Fault mixes the smoke matrix runs under (noise, fades, flaky control).
FAULT_MIXES: Dict[str, Dict[str, float]] = {
    "slot-loss": dict(slot_loss=0.1),
    "burst-loss": dict(burst_rate=0.03, burst_length=5.0),
    "control-loss": dict(control_loss=0.15),
}

#: Retry policies exercised; ``immediate`` keeps the seed's behaviour.
POLICIES: Sequence[str] = ("immediate", "backoff", "cause-aware")

#: CI smoke slice: one scheme per family crossed with everything above.
DEFAULT_SCHEMES: Sequence[str] = ("inval+cache", "sgt+cache", "mv-caching")
DEFAULT_SEEDS: Sequence[int] = (201, 202)
DEFAULT_CLIENTS: Sequence[int] = (3,)
DEFAULT_CYCLES = 50

#: Don't demand post-recovery activity when the last crash ends with
#: fewer cycles than this left -- the client may legitimately still be
#: thinking, backing off, or mid-attempt at the horizon.
LIVENESS_SLACK_CYCLES = 10

#: The crashed run must keep at least this fraction of its never-crashed
#: twin's commit volume (crashes cost availability, not the workload).
CONVERGENCE_FRACTION = 0.2


def crash_params(
    seed: int, num_cycles: int = DEFAULT_CYCLES, num_clients: int = 3
) -> ModelParameters:
    """A small, high-contention world mirroring the fault-oracle tests."""
    return (
        ModelParameters()
        .with_server(
            broadcast_size=60,
            update_range=30,
            offset=0,
            updates_per_cycle=8,
            transactions_per_cycle=3,
            items_per_bucket=6,
            retention=10,
        )
        .with_client(
            read_range=30,
            ops_per_query=5,
            think_time=0.5,
            cache_size=15,
            max_attempts=4,
        )
        .with_sim(
            num_cycles=num_cycles,
            warmup_cycles=2,
            num_clients=num_clients,
            seed=seed,
        )
    )


def resilient_params(
    params: ModelParameters,
    policy: str,
    fault_kwargs: Mapping[str, float],
    crash_rate: float = 0.06,
) -> ModelParameters:
    """``params`` with faults plus the full resilience stack enabled."""
    # backoff_cap stays small relative to the oracle's short runs so a
    # recovering client is not still asleep when the horizon hits.
    return params.with_faults(**fault_kwargs).with_resilience(
        retry_policy=policy,
        backoff_cap=4,
        checkpoint_interval=5,
        catchup_window=8,
        crash_rate=crash_rate,
        crash_length=2.0,
        watchdog_attempts=6,
        degrade_after=4,
        recover_after=3,
    )


def build_sim(scheme: str, params: ModelParameters) -> Simulation:
    """One oracle simulation: history kept, w-window retransmission on
    (so incremental catch-up is actually reachable)."""
    return Simulation(
        params,
        scheme_factory=scheme_factory(scheme),
        keep_history=True,
        report_schedule=ReportSchedule(window=8),
    )


def _committed_count(clients) -> int:
    return sum(
        1
        for client in clients
        for txn in client.completed
        if txn.status is TransactionStatus.COMMITTED
    )


def _crash_liveness(sim: Simulation):
    """Per-cell liveness evidence: (stalled, recovered, expected).

    ``stalled`` counts clients that restarted with at least
    ``LIVENESS_SLACK_CYCLES`` of runway yet never completed another
    attempt -- committed *or* aborted -- which is what a genuinely stuck
    client (a generator that never reschedules) looks like; a live but
    unlucky client keeps aborting instead.  ``recovered`` counts crashed
    clients that committed after their last crash, and ``expected`` the
    crashed clients with enough runway that at least one of them should.
    """
    horizon = sim.params.sim.num_cycles - LIVENESS_SLACK_CYCLES
    stalled = recovered = expected = 0
    for client in sim.clients:
        res = client.resilience
        if res is None or res.crashes is None or not res.crashes.windows:
            continue
        last_end = max(last for _, last in res.crashes.windows)
        if any(
            txn.status is TransactionStatus.COMMITTED
            and (txn.end_cycle or 0) > last_end
            for txn in client.completed
        ):
            recovered += 1
        if last_end > horizon:
            continue
        expected += 1
        active = any(
            (txn.end_cycle or 0) > last_end for txn in client.completed
        )
        if not active:
            stalled += 1
    return stalled, recovered, expected


def run_case(
    scheme: str,
    fault_name: str,
    policy: str,
    seed: int,
    num_cycles: int = DEFAULT_CYCLES,
    num_clients: int = 3,
    convergence_fraction: float = CONVERGENCE_FRACTION,
) -> Dict[str, Any]:
    """Run one (scheme, fault mix, policy, seed) cell and judge it.

    Returns a report dict; the cell passed iff ``mismatches`` is empty.
    """
    fault_kwargs = FAULT_MIXES[fault_name]
    base = crash_params(seed, num_cycles=num_cycles, num_clients=num_clients)
    crashed_params = resilient_params(base, policy, fault_kwargs)

    sim = build_sim(scheme, crashed_params)
    result = sim.run()
    bad = violations(sim.clients, sim.database, sim.engine.history)
    committed = _committed_count(sim.clients)

    twin = build_sim(
        scheme, resilient_params(base, policy, fault_kwargs, crash_rate=0.0)
    )
    twin.run()
    twin_committed = _committed_count(twin.clients)

    replay = build_sim(scheme, crashed_params)
    replay.run()

    def counter(name: str) -> int:
        c = result.metrics.get_counter(name)
        return c.value if c else 0

    stalled, recovered, expected = _crash_liveness(sim)
    snapshot = result.metrics.snapshot()
    replay_snapshot = replay.metrics.snapshot()
    failures: List[str] = []
    if bad:
        failures.append(
            f"{len(bad)} committed readset(s) failed the "
            f"serializability oracle (e.g. {bad[0].txn_id})"
        )
    if stalled:
        failures.append(
            f"{stalled} client(s) stalled after restart "
            "(no completed attempts despite runway)"
        )
    if twin_committed and committed < convergence_fraction * twin_committed:
        failures.append(
            f"commit volume collapsed: {committed} vs never-crashed twin's "
            f"{twin_committed} (< {convergence_fraction:.0%})"
        )
    if snapshot != replay_snapshot:
        changed = {
            key
            for key in set(snapshot) | set(replay_snapshot)
            if snapshot.get(key) != replay_snapshot.get(key)
        }
        failures.append(
            f"replay diverged on {len(changed)} metric(s): "
            f"{sorted(changed)[:5]}"
        )
    return {
        "scheme": scheme,
        "fault_mix": fault_name,
        "policy": policy,
        "clients": num_clients,
        "seed": seed,
        "violations": len(bad),
        "committed": committed,
        "twin_committed": twin_committed,
        "crashes": counter(metric_names.RESILIENCE_CRASHES),
        "restores": counter(metric_names.RESILIENCE_CHECKPOINT_RESTORES),
        "stalled_clients": stalled,
        "recovered_clients": recovered,
        "expected_recoveries": expected,
        "snapshot": snapshot,
        "replay_snapshot": replay_snapshot,
        "mismatches": failures,
    }


def matrix(
    schemes: Sequence[str],
    seeds: Sequence[int],
    clients: Sequence[int],
    cycles: int,
) -> Iterator[Tuple[str, Callable[[], Dict[str, Any]]]]:
    """Every scheme x fault mix x retry policy x seed cell."""
    for scheme, fault, policy, seed, n in itertools.product(
        schemes, FAULT_MIXES, POLICIES, seeds, clients
    ):
        yield (
            f"{scheme} {fault} {policy} N={n} seed={seed}",
            partial(run_case, scheme, fault, policy, seed, cycles, n),
        )


def group_failures(reports: Sequence[Dict[str, Any]]) -> List[str]:
    """Liveness judged per (scheme, fault, policy, N) group across seeds.

    A single cell has only a couple of crashed clients, so "did one of
    them commit again" is noise there; across every seed of a group it
    is signal -- if *no* crashed client with runway ever commits again,
    recovery is not completing for that configuration.
    """
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for r in reports:
        key = (r["scheme"], r["fault_mix"], r["policy"], r["clients"])
        groups.setdefault(key, []).append(r)
    failures = []
    for (scheme, fault, policy, n), members in groups.items():
        expected = sum(r["expected_recoveries"] for r in members)
        recovered = sum(r["recovered_clients"] for r in members)
        if expected and not recovered:
            failures.append(
                f"{scheme} {fault} {policy} N={n}: no crashed client ever "
                f"committed after its last crash across {len(members)} "
                f"seed(s) ({expected} had runway)"
            )
    return failures


def check(reports: Sequence[Dict[str, Any]]) -> List[str]:
    """The matrix-wide rules over every cell that ran: group liveness,
    and a matrix that never crashed, restored or recovered proves
    nothing."""
    problems = group_failures(reports)
    for key, what in (
        ("crashes", "no crashes fired"),
        ("restores", "no checkpoint restore exercised"),
        ("recovered_clients", "no post-crash commit observed"),
    ):
        if not sum(r[key] for r in reports):
            problems.append(f"matrix is vacuous: {what}")
    return problems

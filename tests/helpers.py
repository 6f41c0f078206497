"""Shared test utilities.

The correctness oracles live in the library itself
(:mod:`repro.verify`) so that examples and downstream users can run
them; this module re-exports them for the test suite and adds small
transaction-collection helpers, the canonical tiny workloads the
integration tests simulate (one definition instead of per-module
copies), a deterministic outage model, sweep shape checks and the
two-proportion z-test that compares two schemes' acceptance rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.client.disconnect import DisconnectionModel
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.transaction import ReadOnlyTransaction, TransactionStatus
from repro.experiments.runner import ExperimentProfile, SweepResult
from repro.runtime import Simulation
from repro.verify import (  # noqa: F401 -- re-exported for tests
    check_transaction,
    is_serializable_with_server,
    readset_matches_snapshot,
    snapshot_cycle_of,
    violations,
)

#: The standard tiny world most integration tests simulate: 100 items,
#: 10 buckets per cycle, moderate update pressure.
SMALL_WORLD = (
    ModelParameters()
    .with_server(
        broadcast_size=100,
        update_range=50,
        offset=10,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        items_per_bucket=10,
        retention=12,
    )
    .with_client(read_range=40, ops_per_query=4, think_time=0.5, cache_size=20)
)

#: A matching one-seed experiment profile for harness tests.
TINY_PROFILE = ExperimentProfile(
    num_cycles=30, warmup_cycles=3, num_clients=3, seeds=(5,)
)


def make_oracle_params(
    seed: int,
    offset: int = 0,
    updates: int = 8,
    ops: int = 5,
    num_cycles: int = 25,
    num_clients: int = 2,
) -> ModelParameters:
    """An even smaller, higher-contention world for oracle replays."""
    return (
        ModelParameters()
        .with_server(
            broadcast_size=60,
            update_range=30,
            offset=offset,
            updates_per_cycle=updates,
            transactions_per_cycle=3,
            items_per_bucket=6,
            retention=10,
        )
        .with_client(
            read_range=30,
            ops_per_query=ops,
            think_time=0.5,
            cache_size=15,
            max_attempts=4,
        )
        .with_sim(
            num_cycles=num_cycles,
            warmup_cycles=2,
            seed=seed,
            num_clients=num_clients,
        )
    )


def make_faulty_sim(
    scheme_factory: Callable[[], Scheme],
    seed: int = 7,
    params: Optional[ModelParameters] = None,
    keep_history: bool = True,
    **fault_kwargs,
) -> Simulation:
    """One small simulation with fault injection switched on.

    ``fault_kwargs`` go straight into :class:`repro.config.FaultParameters`
    (e.g. ``slot_loss=0.1, control_loss=0.05``); with none, the run is
    fault-free -- the differential baseline.  ``params`` defaults to
    :func:`make_oracle_params` at ``seed``, and history is kept so the
    correctness oracle can replay every commit.
    """
    base = params if params is not None else make_oracle_params(seed=seed)
    return Simulation(
        base.with_sim(seed=seed).with_faults(**fault_kwargs),
        scheme_factory=scheme_factory,
        keep_history=keep_history,
    )


def committed_transactions(clients: Iterable) -> List[ReadOnlyTransaction]:
    """All committed attempts across clients, completion order."""
    result: List[ReadOnlyTransaction] = []
    for client in clients:
        result.extend(
            txn
            for txn in client.completed
            if txn.status is TransactionStatus.COMMITTED
        )
    return result


def aborted_transactions(clients: Iterable) -> List[ReadOnlyTransaction]:
    result: List[ReadOnlyTransaction] = []
    for client in clients:
        result.extend(
            txn
            for txn in client.completed
            if txn.status is TransactionStatus.ABORTED
        )
    return result


class ScheduledDisconnections(DisconnectionModel):
    """Deterministic outage windows.

    ``outages`` is an iterable of ``(first, last)`` inclusive cycle ranges
    during which the client is deaf.
    """

    def __init__(self, outages) -> None:
        self.outages = [(int(a), int(b)) for a, b in outages]
        for first, last in self.outages:
            if first > last:
                raise ValueError(f"Empty outage window {first}..{last}")

    def is_listening(self, cycle: int) -> bool:
        return not any(first <= cycle <= last for first, last in self.outages)


def monotone_increasing(
    sweep: SweepResult, series: str, tolerance: float = 0.0
) -> bool:
    """Shape check: is the series non-decreasing (within ``tolerance`` of
    absolute slack per step)?"""
    ys = [v for v in sweep.series[series] if not math.isnan(v)]
    return all(b >= a - tolerance for a, b in zip(ys, ys[1:]))


def monotone_decreasing(
    sweep: SweepResult, series: str, tolerance: float = 0.0
) -> bool:
    ys = [v for v in sweep.series[series] if not math.isnan(v)]
    return all(b <= a + tolerance for a, b in zip(ys, ys[1:]))


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal (1 - CDF)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-sample test."""

    statistic: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def two_proportion_z(
    hits_a: int, total_a: int, hits_b: int, total_b: int
) -> ComparisonResult:
    """Two-sided two-proportion z-test for ``p_a != p_b``.

    >>> result = two_proportion_z(90, 100, 50, 100)
    >>> result.significant()
    True
    """
    if total_a <= 0 or total_b <= 0:
        raise ValueError("Both samples must be non-empty")
    if not (0 <= hits_a <= total_a and 0 <= hits_b <= total_b):
        raise ValueError("hits must lie within totals")
    p_a = hits_a / total_a
    p_b = hits_b / total_b
    pooled = (hits_a + hits_b) / (total_a + total_b)
    variance = pooled * (1 - pooled) * (1 / total_a + 1 / total_b)
    if variance == 0:
        return ComparisonResult(statistic=0.0, p_value=1.0)
    z = (p_a - p_b) / math.sqrt(variance)
    return ComparisonResult(statistic=z, p_value=2.0 * _normal_sf(abs(z)))

"""Cohort-vs-discrete differential oracle.

For small populations, run the same configuration twice -- once through
the event-driven :class:`~repro.runtime.Simulation`, once through
:class:`~repro.cohort.CohortSimulation` -- and demand that the aggregate
metrics agree *exactly* under the shared seed:

* every counter (commits, aborts by cause, fault/cache/disconnect
  bookkeeping) equal as integers;
* every ratio estimator equal as ``(hits, total)`` integer pairs;
* every sampler equal as ``(count, exact_sum)``, where the exact sum is
  the order-independent Shewchuk accumulation -- the two engines fold
  samples in different orders, so the Welford running mean may differ in
  the last ulp, but the exact sums must be bit-identical;
* the headline ``SimulationResult`` aggregates (cycles completed, mean
  cycle slots, committed/total attempts) equal.

The diff helpers name the two sides ``reference`` and ``candidate``:
the shard and live oracles reuse them for their own pairs of runs.
Run the matrix with ``python -m repro.oracle cohort`` (:mod:`repro.oracle`).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cohort.engine import CohortSimulation
from repro.config import ModelParameters
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation, SimulationResult
from repro.stats.metrics import MetricsRegistry

#: One scheme per protocol family of the paper (plus the uncached
#: baseline): invalidation-only with and without caching, caching with
#: versions, serialization-graph testing, and multiversion broadcast.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "inval",
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
)
DEFAULT_CLIENTS: Tuple[int, ...] = (1, 4, 16)
DEFAULT_SEEDS: Tuple[int, ...] = (7, 11, 23, 42, 97)
DEFAULT_CYCLES = 30

#: Fault mix exercising every model: per-slot and burst loss, control
#: loss, truncation, delayed reports, and disconnect storms.
FAULT_KNOBS = dict(
    slot_loss=0.05,
    burst_rate=0.02,
    burst_length=3.0,
    control_loss=0.03,
    truncation=0.02,
    report_delay=0.05,
    storm_rate=0.02,
)

#: The headline ``SimulationResult`` fields :func:`result_delta` compares.
RESULT_FIELDS = (
    "scheme_label",
    "cycles_completed",
    "mean_cycle_slots",
    "committed_attempts",
    "total_attempts",
)


def oracle_params(
    clients: int, seed: int, faults: bool, num_cycles: int = DEFAULT_CYCLES
) -> ModelParameters:
    """Small-but-nontrivial configuration (mirrors the test fixtures):
    enough update pressure for invalidations, old versions and graph
    cycles within a fast run."""
    params = (
        ModelParameters()
        .with_server(
            broadcast_size=100,
            update_range=50,
            offset=30,
            updates_per_cycle=8,
            transactions_per_cycle=5,
            items_per_bucket=10,
            retention=12,
        )
        .with_client(
            read_range=40,
            ops_per_query=4,
            think_time=0.5,
            cache_size=20,
            max_attempts=6,
        )
        .with_sim(
            num_cycles=num_cycles,
            warmup_cycles=3,
            num_clients=clients,
            seed=seed,
        )
    )
    if faults:
        params = params.with_faults(**FAULT_KNOBS)
    return params


def value_delta(metric: str, kind: str, reference: Any, candidate: Any) -> List[Dict]:
    """``[]`` if the two sides agree, else the one mismatch record."""
    if reference == candidate:
        return []
    return [
        {"metric": metric, "kind": kind, "reference": reference, "candidate": candidate}
    ]


#: How :func:`registry_delta` reads each metric family: the registry's
#: iterator and the exact value compared per metric.
_FAMILIES: Tuple[Tuple[str, Callable, Callable], ...] = (
    ("counter", MetricsRegistry.counters, lambda c: c.value),
    ("ratio", MetricsRegistry.ratios, lambda r: (r.hits, r.total)),
    ("sampler", MetricsRegistry.samplers, lambda s: (s.count, s.exact_sum)),
)


def registry_delta(
    reference: MetricsRegistry, candidate: MetricsRegistry
) -> List[Dict]:
    """Every metric on which the two registries disagree (exactly)."""
    mismatches: List[Dict] = []
    for kind, family, exact in _FAMILIES:
        ref = {name: exact(m) for name, m in family(reference)}
        cand = {name: exact(m) for name, m in family(candidate)}
        for name in sorted(set(ref) | set(cand)):
            mismatches += value_delta(name, kind, ref.get(name), cand.get(name))
    return mismatches


def result_delta(
    reference: SimulationResult, candidate: SimulationResult
) -> List[Dict]:
    """Headline aggregate disagreements beyond the raw registries."""
    mismatches: List[Dict] = []
    for field in RESULT_FIELDS:
        mismatches += value_delta(
            field, "result", getattr(reference, field), getattr(candidate, field)
        )
    return mismatches


def compare_cell(
    scheme: str,
    clients: int,
    seed: int,
    faults: bool,
    num_cycles: int = DEFAULT_CYCLES,
    cohort_size: Optional[int] = None,
) -> Dict:
    """Run one (scheme, N, seed, faults) cell both ways and diff.

    The cohort side runs in chunks of ``cohort_size`` (by default a
    third of the population), so every cell of three clients or more
    crosses chunks and fans them out over the usable cores.
    Returns a report dict; the cell passed iff ``mismatches`` is empty.
    """
    if cohort_size is None:
        cohort_size = max(1, clients // 3)
    params = oracle_params(clients, seed, faults, num_cycles=num_cycles)
    factory = scheme_factory(scheme)
    discrete = Simulation(params, scheme_factory=factory).run()
    cohort = CohortSimulation(
        params, scheme_factory=factory, cohort_size=cohort_size
    ).run()
    return {
        "scheme": scheme,
        "clients": clients,
        "seed": seed,
        "faults": faults,
        "num_cycles": num_cycles,
        "cohort_size": cohort_size,
        "total_attempts": discrete.total_attempts,
        "mismatches": result_delta(discrete, cohort)
        + registry_delta(discrete.metrics, cohort.metrics),
    }


def matrix(
    schemes: Sequence[str],
    seeds: Sequence[int],
    clients: Sequence[int],
    cycles: int,
) -> Iterator[Tuple[str, Callable[[], Dict]]]:
    """Every scheme x faults off/on x N x seed cell, clean ones first."""
    for scheme, faults, n, seed in itertools.product(
        schemes, (False, True), clients, seeds
    ):
        yield (
            f"{scheme} N={n} seed={seed} faults={'on' if faults else 'off'}",
            partial(compare_cell, scheme, n, seed, faults, num_cycles=cycles),
        )

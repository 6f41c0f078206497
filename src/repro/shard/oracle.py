"""Differential oracle for the sharded broadcast server.

Two claims, both checked mechanically (``python -m repro.oracle shard``):

1. **K=1 bit-identity** -- a :class:`~repro.shard.runtime.ShardedSimulation`
   with one shard IS the single-channel :class:`~repro.runtime.Simulation`:
   every metric counter, ratio and exact sampler sum, and every headline
   result field, matches exactly, across schemes × seeds × faults on/off.
   The comparison machinery is shared with the cohort oracle
   (:func:`repro.cohort.oracle.registry_delta`), which pins the same
   notion of "bit-identical".
2. **Multi-shard consistency contracts** -- for K > 1, every committed
   transaction satisfies its consistency mode's contract
   (:func:`repro.shard.verify.sharded_violations`): per-shard
   serializability always, plus a global snapshot for every
   snapshot-based scheme and for everything in ``epoch`` mode.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Dict, Iterator, Sequence, Tuple

from repro.cohort.oracle import oracle_params, registry_delta, result_delta
from repro.config import ModelParameters
from repro.experiments.schemes import SCHEME_FACTORIES
from repro.runtime import Simulation
from repro.shard.runtime import ShardedSimulation
from repro.shard.verify import sharded_violations

#: Identity arm: the same line-up the cohort oracle pins down.
DEFAULT_SCHEMES = (
    "inval",
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
)
DEFAULT_SEEDS = (7, 11, 23, 42, 97)
DEFAULT_CLIENTS = (4,)
DEFAULT_CYCLES = 30

#: Contract arm: one scheme per consistency behaviour class (plain
#: invalidation, marked-abort salvage, SGT, pinned-snapshot multiversion),
#: crossed with every shard count, mode, partitioner and cross-shard
#: fraction below at its own seeds.
CONTRACT_SCHEMES = (
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
)
SHARDS = (2, 4)
MODES = ("local", "epoch")
PARTITIONERS = ("hash", "range")
FRACTIONS = (0.1, 0.5)
CONTRACT_SEEDS = (42,)


def contract_params(
    clients: int, seed: int, faults: bool, num_cycles: int = 30
) -> ModelParameters:
    """The contract arm's workload: the cohort-oracle cell, widened so
    the read range spans every shard under *both* partitioners (a range
    partition of 100 items at K=4 starts shard 3 at item 76)."""
    params = oracle_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    return params.with_client(read_range=80, cache_size=30)


def check_identity_cell(
    scheme: str, clients: int, seed: int, faults: bool, num_cycles: int
) -> Dict:
    """Compare one single-channel run against its K=1 sharded twin."""
    params = oracle_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    factory = SCHEME_FACTORIES[scheme]
    single = Simulation(params, factory, keep_history=True).run()
    sharded = ShardedSimulation(
        params, factory, num_shards=1, keep_history=True
    ).run()
    mismatches = registry_delta(single.metrics, sharded.metrics)
    mismatches.extend(result_delta(single, sharded))
    return {
        "arm": "identity",
        "scheme": scheme,
        "clients": clients,
        "seed": seed,
        "faults": faults,
        "mismatches": mismatches,
        "committed": sharded.committed_attempts,
    }


def check_contract_cell(
    scheme: str,
    shards: int,
    mode: str,
    fraction: float,
    partitioner: str,
    clients: int,
    seed: int,
    faults: bool,
    num_cycles: int,
) -> Dict:
    """Run one multi-shard cell and check every committed transaction."""
    params = contract_params(
        clients=clients, seed=seed, faults=faults, num_cycles=num_cycles
    )
    sim = ShardedSimulation(
        params,
        SCHEME_FACTORIES[scheme],
        num_shards=shards,
        partitioner=partitioner,
        consistency=mode,
        cross_shard_fraction=fraction,
        keep_history=True,
    )
    result = sim.run()
    violations = sharded_violations(sim)
    cross = result.metrics.get_counter("shard.cross_commits")
    return {
        "arm": "contract",
        "scheme": scheme,
        "shards": shards,
        "mode": mode,
        "fraction": fraction,
        "partitioner": partitioner,
        "seed": seed,
        "faults": faults,
        "committed": result.committed_attempts,
        "cross_commits": cross.value if cross else 0,
        "mismatches": [
            {"txn": txn.txn_id, "contract": why} for txn, why in violations
        ],
    }


def matrix(
    schemes: Sequence[str],
    seeds: Sequence[int],
    clients: Sequence[int],
    cycles: int,
) -> Iterator[Tuple[str, Callable[[], Dict]]]:
    """The identity arm over ``seeds``, then the contract arm (for the
    schemes among :data:`CONTRACT_SCHEMES`) over :data:`CONTRACT_SEEDS`."""
    for scheme, seed, faults, n in itertools.product(
        schemes, seeds, (False, True), clients
    ):
        yield (
            f"identity {scheme} N={n} seed={seed} "
            f"faults={'on' if faults else 'off'}",
            partial(check_identity_cell, scheme, n, seed, faults, cycles),
        )
    contract = [s for s in schemes if s in CONTRACT_SCHEMES]
    for scheme, k, mode, part, frac, seed, faults, n in itertools.product(
        contract, SHARDS, MODES, PARTITIONERS, FRACTIONS, CONTRACT_SEEDS,
        (False, True), clients,
    ):
        yield (
            f"contract {scheme} K={k} {mode} {part} f={frac} N={n} "
            f"seed={seed} faults={'on' if faults else 'off'}",
            partial(
                check_contract_cell,
                scheme, k, mode, frac, part, n, seed, faults, cycles,
            ),
        )

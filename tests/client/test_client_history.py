"""A finished query leaves nothing behind unless history is kept.

A :class:`~repro.client.machine.BroadcastClient` appends a finished
attempt to ``completed`` only under ``keep_history`` (DESIGN §17).
Three nets hold that change to "memory only":

* the bound: after 200 cycles and after 800 alike, a run holds at most
  one ``ReadOnlyTransaction`` per client, and no ``ReadResult`` beyond
  those of the attempts still in flight -- discrete, K=2 shards and
  cohort replay;
* a differential: history kept and not kept fill the same registry, in
  every mode;
* a ``slow`` lane (``REPRO_SCALE_TESTS=1``): 10^4 discrete cycles with
  the run's traced memory flat.
"""

from __future__ import annotations

import asyncio
import gc
import os
import tracemalloc

import pytest

from repro.cohort import engine
from repro.cohort.engine import CohortSimulation, make_member
from repro.cohort.oracle import oracle_params, registry_delta, scheme_factory
from repro.core.transaction import ReadOnlyTransaction, ReadResult
from repro.live.oracle import run_live
from repro.runtime import Simulation
from repro.server.database import TrimmedHistoryError
from repro.shard.runtime import ShardedSimulation

#: The five schemes the ``des-sweep`` benchmark workload runs.
SWEEP_SCHEMES = (
    "inval+cache",
    "versioned-cache",
    "sgt+cache",
    "multiversion+cache",
    "mv-caching",
)


@pytest.fixture
def run_cohort(monkeypatch):
    """Run a cohort replay whose members are built with
    ``keep_history``; returns its result and its members, held past the
    run (cohort replay itself releases them)."""

    def run(params, factory, keep_history=False):
        built = []

        def recording(seed, scheme, params, metrics):
            built.append(
                make_member(seed, scheme, params, metrics, keep_history)
            )
            return built[-1]

        monkeypatch.setattr(engine, "make_member", recording)
        return CohortSimulation(params, factory).run(), built

    return run


def _held():
    """The attempts and read results alive in this process."""
    gc.collect()
    held = {ReadOnlyTransaction: [], ReadResult: []}
    for obj in gc.get_objects():
        found = held.get(type(obj))
        if found is not None:
            found.append(obj)
    return held


def _run(mode, params, run_cohort):
    """Run ``mode`` without history; returns its clients, still alive."""
    factory = scheme_factory("sgt+cache")
    if mode == "cohort":
        _, members = run_cohort(params, factory)
        return [member.client for member in members]
    if mode == "discrete":
        sim = Simulation(params, factory)
    else:
        sim = ShardedSimulation(params, factory, num_shards=2)
    sim.run()
    return sim.clients


@pytest.mark.parametrize("cycles", [200, 800])
@pytest.mark.parametrize("mode", ["discrete", "shard", "cohort"])
def test_a_client_holds_only_its_attempt_in_flight(run_cohort, mode, cycles):
    before = _held()
    clients = _run(
        mode, oracle_params(3, 11, False, num_cycles=cycles), run_cohort
    )
    assert len(clients) == 3
    after = _held()
    known = {kind: set(map(id, objs)) for kind, objs in before.items()}
    txns = [
        txn
        for txn in after[ReadOnlyTransaction]
        if id(txn) not in known[ReadOnlyTransaction]
    ]
    results = [
        result
        for result in after[ReadResult]
        if id(result) not in known[ReadResult]
    ]
    in_flight = {
        id(client._current_txn)
        for client in clients
        if client._current_txn is not None
    }
    assert len(txns) <= len(clients)
    assert {id(txn) for txn in txns} <= in_flight
    reads_in_flight = {
        id(result) for txn in txns for result in txn.reads.values()
    }
    assert {id(result) for result in results} <= reads_in_flight
    for client in clients:
        with pytest.raises(TrimmedHistoryError, match="keep_history=True"):
            client.completed


# -- keep_history on vs off: identical registries ---------------------------


def _same_registry(kept, trimmed):
    """Run both; they must fill the same registry, and only the first
    may keep its clients' attempts."""
    kept_result = kept.run()
    trimmed_result = trimmed.run()
    assert registry_delta(kept_result.metrics, trimmed_result.metrics) == []
    assert sum(len(client.completed) for client in kept.clients) > 0
    with pytest.raises(TrimmedHistoryError):
        trimmed.clients[0].completed


@pytest.mark.parametrize("faults", [False, True])
@pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
def test_discrete_registry_same_without_history(scheme, faults):
    params = oracle_params(3, 11, faults, num_cycles=40)
    factory = scheme_factory(scheme)
    _same_registry(
        Simulation(params, factory, keep_history=True),
        Simulation(params, factory),
    )


def test_two_shards_registry_same_without_history():
    params = oracle_params(3, 11, False, num_cycles=40)
    factory = scheme_factory("sgt+cache")
    _same_registry(
        ShardedSimulation(params, factory, num_shards=2, keep_history=True),
        ShardedSimulation(params, factory, num_shards=2),
    )


def test_cohort_registry_same_with_history_members(run_cohort):
    params = oracle_params(3, 11, True, num_cycles=40)
    factory = scheme_factory("inval+cache")
    kept, kept_members = run_cohort(params, factory, keep_history=True)
    trimmed, trimmed_members = run_cohort(params, factory)
    assert registry_delta(kept.metrics, trimmed.metrics) == []
    assert sum(len(m.client.completed) for m in kept_members) > 0
    with pytest.raises(TrimmedHistoryError):
        trimmed_members[0].client.completed


def test_live_registry_same_without_history():
    params = oracle_params(2, 11, False, num_cycles=20)
    _, kept, kept_metrics = asyncio.run(
        run_live(params, "inval+cache", faults=False, keep_history=True)
    )
    _, trimmed, trimmed_metrics = asyncio.run(
        run_live(params, "inval+cache", faults=False)
    )
    assert registry_delta(kept_metrics, trimmed_metrics) == []
    assert sum(len(result.client.completed) for result in kept) > 0
    with pytest.raises(TrimmedHistoryError):
        trimmed[0].client.completed


# -- the scale lane ---------------------------------------------------------


def _traced_end_state(cycles: int) -> int:
    """Traced bytes a discrete ``sgt+cache`` run still holds at its end."""
    params = oracle_params(3, 11, False, num_cycles=cycles)
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(params, scheme_factory("sgt+cache"))
        sim.run()
        assert sim.backend.cycles_completed == cycles
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_TESTS") != "1",
    reason="10^4-cycle client soak lane; set REPRO_SCALE_TESTS=1",
)
def test_ten_thousand_cycles_hold_client_memory_flat():
    """The client half of the soak gate.  Clients that kept every
    finished attempt grew by 24.5 MiB over the same 6 000 cycles
    (16.5 MiB at 4 000 cycles, 41.0 MiB at 10^4)."""
    short = _traced_end_state(4_000)
    long = _traced_end_state(10_000)
    assert long - short < 64 * 1024, (short, long)

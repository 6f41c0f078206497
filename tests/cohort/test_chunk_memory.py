"""What a cohort chunk holds: its members' state, and nothing after it.

Two nets, both on one usable core so every chunk runs in this process,
where the probes can see it:

* a finished chunk is freed by reference counting alone: with the
  collector off, several chunks leave no unreachable object behind
  (DESIGN §17, "Cohort replay"), and the teardown that unties them
  changes no count;
* a member's bytes: traced at the chunk's end, after a collection, a
  member of an ``inval+cache`` chunk stays under :data:`MEMBER_BYTES`.
  A cache that keeps an ``OrderedDict`` current partition (20.4 kB a
  member), or builds one entry object per held item (19.6 kB), fails
  it; one that holds its records reads 15.7 kB (CPython 3.11), and the
  cache that also stamped each entry's arrival time read 23.6 kB.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.client.disconnect import RandomDisconnections
from repro.cohort import engine
from repro.cohort.engine import CohortSimulation, Member
from repro.cohort.oracle import oracle_params
from repro.cohort.trace import KernellessServer
from repro.config import ModelParameters
from repro.experiments.schemes import scheme_factory

#: Traced bytes per ``inval+cache`` member at the end of a 60-cycle
#: chunk on ``cohort-1k``'s parameters (seed 12).
MEMBER_BYTES = 17_500


def _disconnects(rng: random.Random) -> RandomDisconnections:
    return RandomDisconnections(0.2, mean_outage_cycles=2.0, rng=rng)


#: (faults, disconnect factory) per case.
CASES = {
    "clean": (False, None),
    "faults": (True, None),
    "disconnects": (False, _disconnects),
}
CACHED_SCHEMES = ("inval+cache", "sgt+cache", "multiversion+cache", "versioned-cache")


def _snapshot(params, scheme, disconnects):
    # 12 clients in chunks of 4: three chunks, one after another.
    sim = CohortSimulation(
        params,
        scheme_factory(scheme),
        disconnect_factory=disconnects,
        cohort_size=4,
    )
    return sim.run().metrics.snapshot()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheme", CACHED_SCHEMES)
def test_finished_chunks_leave_nothing_to_the_collector(monkeypatch, scheme, case):
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)
    faults, disconnects = CASES[case]
    params = oracle_params(12, 11, faults, num_cycles=20)
    if faults:
        params = params.with_faults(storm_rate=0.3)
    gc.collect()
    gc.disable()
    try:
        untied = _snapshot(params, scheme, disconnects)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    # The same run with its chunks left tied: the teardown counts nothing.
    monkeypatch.setattr(Member, "close", lambda self: None)
    monkeypatch.setattr(KernellessServer, "close", lambda self: None)
    assert _snapshot(params, scheme, disconnects) == untied


def _traced_at_chunk_end(monkeypatch, clients: int) -> int:
    """Traced bytes of a one-chunk ``inval+cache`` run of ``clients``
    members, after a collection, as the first member finishes: every
    member has heard every cycle and none is released yet."""
    params = ModelParameters().with_sim(
        num_cycles=60, num_clients=clients, seed=12
    )
    traced = []
    finish = Member.finish

    def probed(self, end_time):
        if not traced:
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
        finish(self, end_time)

    monkeypatch.setattr(Member, "finish", probed)
    tracemalloc.start()
    try:
        CohortSimulation(
            params, scheme_factory("inval+cache"), cohort_size=clients
        ).run()
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(Member, "finish", finish)
    return traced[0]


def test_a_member_holds_its_cache_as_records(monkeypatch):
    """The per-member bytes, as the difference of two chunks, so what
    the server and the window of programs hold cancels out.  A first,
    discarded run takes the process's one-time allocations."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)
    few, many = 8, 136
    _traced_at_chunk_end(monkeypatch, few)
    grown = _traced_at_chunk_end(monkeypatch, many) - _traced_at_chunk_end(
        monkeypatch, few
    )
    per_member = grown / (many - few)
    assert per_member < MEMBER_BYTES, per_member

"""The fault-injection correctness suite: every scheme degrades *safely*.

The load-bearing property of :mod:`repro.faults`: whatever the air
interface loses -- buckets, control segments, cycle tails, whole cycles
-- a committed readset always passes the ground-truth oracle of
:mod:`repro.verify`.  Faults may cost aborts, retries, and latency;
they must never buy an inconsistent commit.

The matrix is scheme x fault model x seeds; each cell is a small but
real simulation whose committed transactions are replayed against the
server's version chains.  A separate test proves the harness has teeth:
the unsafe baseline *does* violate the oracle under the same faults.
"""

import pytest

from repro.core import (
    InvalidationOnly,
    InvalidationWithVersionedCache,
    MultiversionBroadcast,
    MultiversionCaching,
    NoConsistency,
)
from repro.stats.metrics import FAULT_SLOTS_LOST
from tests.helpers import (
    check_transaction,
    committed_transactions,
    make_faulty_sim,
    make_oracle_params,
    violations,
)

#: The four processing schemes of the paper (Theorems 1, 2, 4, 5).
SCHEMES = {
    "inval": lambda: InvalidationOnly(use_cache=True),
    "versioned-cache": lambda: InvalidationWithVersionedCache(),
    "multiversion": lambda: MultiversionBroadcast(),
    "mv-caching": lambda: MultiversionCaching(),
}

#: One configuration per fault model, plus the kitchen sink.
FAULT_MODELS = {
    "slot-loss": dict(slot_loss=0.1),
    "burst-loss": dict(burst_rate=0.03, burst_length=5.0),
    "control-loss": dict(control_loss=0.15),
    "truncation": dict(truncation=0.2, truncation_min_fraction=0.3),
    "report-delay": dict(report_delay=0.3, report_max_delay=6.0),
    "storms": dict(storm_rate=0.1, storm_length=2.0, storm_participation=0.9),
    "everything": dict(
        slot_loss=0.05,
        burst_rate=0.02,
        control_loss=0.05,
        truncation=0.1,
        report_delay=0.1,
        storm_rate=0.05,
    ),
}

SEEDS = range(101, 121)  # ~20 seeds per (scheme, fault model) cell


def assert_no_violations(sim, label):
    bad = violations(sim.clients, sim.database, sim.engine.history)
    assert not bad, (
        f"{label}: {len(bad)} committed readset(s) failed the oracle, "
        f"e.g. {bad[0].txn_id} read {dict(bad[0].reads)}"
    )


@pytest.mark.parametrize("fault_name", sorted(FAULT_MODELS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_schemes_never_commit_bad_readsets_under_faults(scheme_name, fault_name):
    factory = SCHEMES[scheme_name]
    fault_kwargs = FAULT_MODELS[fault_name]
    checked = 0
    for seed in SEEDS:
        sim = make_faulty_sim(factory, seed=seed, **fault_kwargs)
        sim.run()
        label = f"{scheme_name}/{fault_name}/seed={seed}"
        assert_no_violations(sim, label)
        checked += len(committed_transactions(sim.clients))
    # The matrix must actually exercise commits, not just vacuous aborts.
    assert checked > 0, f"{scheme_name}/{fault_name} never committed anything"


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_thirty_cycle_run_at_ten_percent_loss_is_clean(scheme_name):
    """The acceptance bar: 30 cycles at 10% slot loss, zero violations,
    and the run actually completes every cycle."""
    params = make_oracle_params(seed=42, num_cycles=30, num_clients=3)
    sim = make_faulty_sim(SCHEMES[scheme_name], seed=42, params=params, slot_loss=0.1)
    result = sim.run()
    assert result.cycles_completed == 30
    assert result.metrics.fault_summary()[FAULT_SLOTS_LOST] > 0
    assert_no_violations(sim, f"{scheme_name}/10%-loss")


def test_fault_oracle_has_teeth():
    """The unsafe baseline must fail the same oracle under the same
    faults -- otherwise passing proves nothing."""
    for seed in SEEDS:
        sim = make_faulty_sim(
            lambda: NoConsistency(),
            seed=seed,
            params=make_oracle_params(seed=seed, updates=12, ops=6),
            slot_loss=0.1,
        )
        sim.run()
        committed = committed_transactions(sim.clients)
        bad = [
            txn
            for txn in committed
            if not check_transaction(txn, sim.database, sim.engine.history)
        ]
        if bad:
            return
    pytest.fail("expected the unsafe baseline to violate the oracle")


def test_faults_actually_fire():
    """Differential sanity: injection changes outcomes vs. the fault-free
    twin, and the fault counters see it."""
    clean = make_faulty_sim(SCHEMES["inval"], seed=5)
    faulty = make_faulty_sim(SCHEMES["inval"], seed=5, slot_loss=0.15)
    clean_result, faulty_result = clean.run(), faulty.run()
    clean_faults = clean_result.metrics.fault_summary()
    faulty_faults = faulty_result.metrics.fault_summary()
    assert all(v == 0 for v in clean_faults.values())
    assert faulty_faults[FAULT_SLOTS_LOST] > 0

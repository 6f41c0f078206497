"""The recovery differential oracle at full test depth.

The CI smoke matrix (``python -m repro.oracle resilience``) runs a
reduced slice; here the serializability leg runs the full ISSUE matrix
-- five schemes x three fault mixes x ten seeds, every run with crashes,
checkpoints, watchdog, and the degradation ladder active and the
w-window on so incremental catch-up is reachable -- while the more
expensive differential legs (never-crashed twin, bit-identical replay)
run on a narrower slice through the same helpers.
"""

import pytest

from repro.resilience.oracle import (
    FAULT_MIXES,
    build_sim,
    crash_params,
    group_failures,
    resilient_params,
    run_case,
)
from repro.stats import names as metric_names
from repro.verify import violations

SCHEMES = ("inval+cache", "versioned-cache", "sgt+cache", "multiversion", "mv-caching")
SEEDS = tuple(range(301, 311))  # 10 seeds per (scheme, fault mix) cell


def _counter(result, name):
    c = result.metrics.get_counter(name)
    return c.value if c else 0


@pytest.mark.parametrize("fault_name", sorted(FAULT_MIXES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_recovery_never_commits_bad_readsets(scheme, fault_name):
    """Serializability under crash-restart: the full matrix."""
    crashes = restores = committed = 0
    for seed in SEEDS:
        params = resilient_params(
            crash_params(seed), "cause-aware", FAULT_MIXES[fault_name]
        )
        sim = build_sim(scheme, params)
        result = sim.run()
        bad = violations(sim.clients, sim.database, sim.engine.history)
        assert not bad, (
            f"{scheme}/{fault_name}/seed={seed}: {len(bad)} recovered "
            f"commit(s) failed the oracle, e.g. {bad[0].txn_id}"
        )
        crashes += _counter(result, metric_names.RESILIENCE_CRASHES)
        restores += _counter(
            result, metric_names.RESILIENCE_CHECKPOINT_RESTORES
        )
        committed += result.committed_attempts
    # The matrix must exercise the machinery, not pass vacuously.
    assert crashes > 0, f"{scheme}/{fault_name}: no crash ever fired"
    assert committed > 0, f"{scheme}/{fault_name}: nothing ever committed"
    if scheme != "sgt+cache":
        # SGT legitimately restores only gap-safe state; everyone else
        # must hit the checkpoint catch-up path somewhere in 10 seeds.
        assert restores > 0, f"{scheme}/{fault_name}: catch-up never ran"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_recovery_liveness_and_convergence(scheme):
    """Crashed clients recover (group-level across seeds) and the run
    keeps a sane fraction of the never-crashed twin's commits."""
    reports = [
        run_case(scheme, "slot-loss", "cause-aware", seed)
        for seed in SEEDS[:4]
    ]
    for report in reports:
        assert report["mismatches"] == [], f"seed={report['seed']}"
    assert group_failures(reports) == []
    assert sum(r["recovered_clients"] for r in reports) > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_recovery_replay_is_bit_identical(scheme):
    """Same configuration, rebuilt and rerun: identical metrics, so the
    whole recovery path -- crash schedules, checkpoints, backoff jitter
    -- is deterministic."""
    params = resilient_params(
        crash_params(777), "backoff", FAULT_MIXES["burst-loss"]
    )
    snapshots = []
    for _ in range(2):
        sim = build_sim(scheme, params)
        snapshots.append(sim.run().metrics.snapshot())
    assert snapshots[0] == snapshots[1]

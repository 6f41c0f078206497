"""The sub-cycle invalidation-report extension (Section 7, first item).

Our variant keeps per-cycle data visibility (values change only at cycle
starts -- documented substitution in DESIGN.md) and uses the interim
reports to accelerate the abort/mark decision:

* invalidation-only aborts doomed queries within ``h`` instead of a full
  cycle (slightly pessimistic: a query that would have finished inside
  the current cycle dies early);
* the versioned-cache and multiversion-caching schemes mark queries with
  the same deadline the next main report would set, losing nothing.

Correctness must be untouched in all cases.
"""

import pytest

from repro.core import (
    InvalidationOnly,
    InvalidationWithVersionedCache,
    MultiversionCaching,
)
from repro.core.control import ReportSchedule
from repro.runtime import Simulation
from repro.server.transactions import merge_outcomes
from tests.helpers import (
    aborted_transactions,
    committed_transactions,
    snapshot_cycle_of,
)


def run(params, factory, per_cycle, keep_history=False):
    sim = Simulation(
        params,
        scheme_factory=factory,
        report_schedule=ReportSchedule(per_cycle=per_cycle),
        keep_history=keep_history,
    )
    result = sim.run()
    return sim, result


class TestCorrectness:
    @pytest.mark.parametrize("per_cycle", [2, 4])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: InvalidationOnly(),
            lambda: InvalidationOnly(use_cache=True),
            lambda: InvalidationWithVersionedCache(),
            lambda: MultiversionCaching(),
        ],
    )
    def test_commits_still_consistent(self, medium_params, factory, per_cycle):
        sim, _ = run(medium_params, factory, per_cycle, keep_history=True)
        committed = committed_transactions(sim.clients)
        assert committed
        for txn in committed:
            assert snapshot_cycle_of(txn, sim.database) is not None

    def test_versioned_cache_theorem4_with_interim_marking(self, hot_params):
        sim, _ = run(
            hot_params.with_sim(num_clients=4),
            lambda: InvalidationWithVersionedCache(),
            per_cycle=4,
            keep_history=True,
        )
        from tests.helpers import readset_matches_snapshot

        marked = [
            txn
            for txn in committed_transactions(sim.clients)
            if txn.deadline is not None
        ]
        assert marked
        for txn in marked:
            assert readset_matches_snapshot(txn, sim.database, txn.deadline - 1)


class TestBehaviour:
    def test_interim_reports_published(self, small_params):
        sim, result = run(small_params, lambda: InvalidationOnly(), per_cycle=4)
        counter = result.metrics.get_counter("broadcast.interim_reports")
        assert counter is not None and counter.value > 0

    def test_no_interim_reports_at_default_schedule(self, small_params):
        sim, result = run(small_params, lambda: InvalidationOnly(), per_cycle=1)
        assert result.metrics.get_counter("broadcast.interim_reports") is None

    def test_server_outcomes_identical_across_schedules(self, small_params):
        """Splitting commits across intervals must not change *what* the
        server commits, only when it is announced."""
        updates = []
        for per_cycle in (1, 5):
            sim, _ = run(
                small_params, lambda: InvalidationOnly(), per_cycle,
                keep_history=True,
            )
            updates.append([sorted(o.updated_items) for o in sim.engine.outcomes])
        assert len(updates[0]) == small_params.sim.num_cycles
        assert updates[0] == updates[1]

    def test_faster_aborts_for_invalidation_only(self, medium_params):
        def mean_time_to_abort(sim):
            aborted = aborted_transactions(sim.clients)
            if not aborted:
                return None
            return sum(t.end_time - t.start_time for t in aborted) / len(aborted)

        sim_base, _ = run(
            medium_params, lambda: InvalidationOnly(), 1, keep_history=True
        )
        sim_fast, _ = run(
            medium_params, lambda: InvalidationOnly(), 5, keep_history=True
        )
        base = mean_time_to_abort(sim_base)
        fast = mean_time_to_abort(sim_fast)
        assert base is not None and fast is not None
        # Aborts land within h instead of a full cycle; allow noise.
        assert fast <= base * 1.05


class TestMergeOutcomes:
    def test_merge_validations(self):
        with pytest.raises(ValueError):
            merge_outcomes([])

    def test_merge_mismatched_cycles_rejected(self, small_params):
        sim = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
        a = sim.engine.run_batch(1, range(0, 2))
        b = sim.engine.run_batch(2, range(2, 4))
        with pytest.raises(ValueError):
            merge_outcomes([a, b])

    def test_merge_combines_parts(self, small_params):
        sim = Simulation(
            small_params,
            scheme_factory=lambda: InvalidationOnly(),
            keep_history=True,
        )
        a = sim.engine.run_batch(1, range(0, 2))
        b = sim.engine.run_batch(1, range(2, 5))
        merged = merge_outcomes([a, b])
        assert merged.updated_items == a.updated_items | b.updated_items
        assert len(merged.transactions) == 5
        assert merged.diff.edges == a.diff.edges | b.diff.edges
        # First writers from the earlier batch win.
        for item, tid in a.first_writers.items():
            assert merged.first_writers[item] == tid

    def test_merge_carries_an_untracked_diff_through(self, small_params):
        """An engine that tracks no conflicts says so in every part, and
        the merged outcome must keep saying it (never an empty diff)."""
        sim = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
        a = sim.engine.run_batch(1, range(0, 2))
        b = sim.engine.run_batch(1, range(2, 5))
        assert a.diff is None and b.diff is None
        merged = merge_outcomes([a, b])
        assert merged.diff is None
        assert merged.updated_items == a.updated_items | b.updated_items

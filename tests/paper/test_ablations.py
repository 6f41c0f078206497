"""Ablations of the design choices the paper discusses.

Each ablation flips one mechanism and reports the metric the paper's
prose predicts it moves:

* multiversion organization: overflow vs. clustered (§3.2, Figure 2) --
  clustered pays an index every cycle (longer bcasts), overflow makes
  old-version readers wait for the end of the bcast;
* invalidation granularity: item vs. bucket reports (§7) -- coarser
  reports can only add false aborts;
* transaction optimization: reading in broadcast order (§2.2) shrinks
  the span;
* sub-cycle reports (§7): faster aborts, slightly lower acceptance;
* w-window report retransmission (§5.2.2/§7): disconnected clients can
  resynchronize their caches instead of dropping them.
"""

import pytest

from repro.client.disconnect import RandomDisconnections
from repro.core import InvalidationOnly, MultiversionBroadcast
from repro.core.control import ReportSchedule
from repro.core.invalidation import Granularity
from repro.experiments.runner import run_point
from repro.experiments.render import render_table


def test_ablation_multiversion_organization(paper_profile, paper_params):
    def regenerate():
        points = {}
        for organization in ("overflow", "clustered"):
            points[organization] = run_point(
                paper_params,
                lambda: MultiversionBroadcast(organization=organization),
                paper_profile,
                label=organization,
            )
        return points

    points = regenerate()
    rows = [
        [
            org,
            f"{p.mean_cycle_slots:.1f}",
            f"{p.mean_latency_cycles:.2f}",
            f"{p.abort_rate:.3f}",
        ]
        for org, p in points.items()
    ]
    print()
    print(render_table(["organization", "slots/cycle", "latency", "aborts"], rows))
    # Clustered rebroadcasts an index every cycle: longer bcasts.
    assert (
        points["clustered"].mean_cycle_slots > points["overflow"].mean_cycle_slots
    )
    # Neither organization aborts anything within the retention window.
    assert points["overflow"].abort_rate == 0.0
    assert points["clustered"].abort_rate == 0.0


def test_ablation_invalidation_granularity(paper_profile, paper_params):
    def regenerate():
        return {
            grain.value: run_point(
                paper_params,
                lambda: InvalidationOnly(use_cache=True, granularity=grain),
                paper_profile,
                label=grain.value,
            )
            for grain in (Granularity.ITEM, Granularity.BUCKET)
        }

    points = regenerate()
    print()
    print(
        render_table(
            ["granularity", "abort rate"],
            [[g, f"{p.abort_rate:.3f}"] for g, p in points.items()],
        )
    )
    # Bucket-level reports can only add (false) aborts.
    assert points["bucket"].abort_rate >= points["item"].abort_rate - 0.03


def test_ablation_transaction_optimization(paper_profile, paper_params):
    def regenerate():
        results = {}
        for sort_reads in (False, True):
            params = paper_params.with_client(sort_reads=sort_reads)
            results[sort_reads] = run_point(
                params,
                lambda: InvalidationOnly(use_cache=False),
                paper_profile,
                label=str(sort_reads),
            )
        return results

    points = regenerate()
    print()
    print(
        render_table(
            ["sorted reads", "span", "latency", "aborts"],
            [
                [
                    str(s),
                    f"{p.mean_span:.2f}",
                    f"{p.mean_latency_cycles:.2f}",
                    f"{p.abort_rate:.3f}",
                ]
                for s, p in points.items()
            ],
        )
    )
    # Reading in broadcast order shrinks the span (Section 2.2).
    assert points[True].mean_span <= points[False].mean_span + 0.2


def test_ablation_subcycle_reports(paper_profile, paper_params):
    def regenerate():
        return {
            k: run_point(
                paper_params,
                lambda: InvalidationOnly(use_cache=True),
                paper_profile,
                label=f"k={k}",
                report_schedule=ReportSchedule(per_cycle=k),
            )
            for k in (1, 4)
        }

    points = regenerate()
    print()
    print(
        render_table(
            ["reports/cycle", "abort rate", "attempts"],
            [
                [str(k), f"{p.abort_rate:.3f}", str(p.attempts)]
                for k, p in points.items()
            ],
        )
    )
    # Early aborts may cost a little acceptance, never correctness.
    assert points[4].abort_rate >= points[1].abort_rate - 0.05


def test_ablation_report_window(paper_profile, paper_params):
    def flaky(rng):
        return RandomDisconnections(
            p_disconnect=0.12, mean_outage_cycles=1.5, rng=rng
        )

    def regenerate():
        return {
            window: run_point(
                paper_params,
                lambda: InvalidationOnly(use_cache=True),
                paper_profile,
                label=f"w={window}",
                report_schedule=ReportSchedule(window=window),
                disconnect_factory=flaky,
            )
            for window in (0, 4)
        }

    points = regenerate()
    print()
    print(
        render_table(
            ["window", "abort rate", "latency"],
            [
                [str(w), f"{p.abort_rate:.3f}", f"{p.mean_latency_cycles:.2f}"]
                for w, p in points.items()
            ],
        )
    )
    # With a covering window the cache survives outages; quality must not
    # get worse (usually latency improves through better hit rates).
    assert points[4].abort_rate <= points[0].abort_rate + 0.1

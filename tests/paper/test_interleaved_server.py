"""Ablation: commit-order server execution vs. real interleaved 2PL.

The default engine executes each cycle's transactions serially in commit
order, justified by strict 2PL's conflict-equivalence to that order.
This test runs the same workload with the actual lock-manager-driven
interleaved executor and checks that the client-visible statistics are
statistically indistinguishable -- the shortcut changes nothing a client
can observe.
"""

from repro.experiments.render import render_table
from repro.experiments.runner import run_point
from repro.experiments.schemes import scheme_factory
from tests.helpers import two_proportion_z


def test_interleaved_server_equivalence(paper_profile, paper_params):
    def regenerate():
        points = {}
        for interleaved in (False, True):
            points[interleaved] = run_point(
                paper_params,
                scheme_factory("sgt+cache"),
                paper_profile,
                label="interleaved" if interleaved else "commit-order",
                interleaved_server=interleaved,
            )
        return points

    points = regenerate()
    rows = [
        [
            "interleaved" if mode else "commit-order",
            f"{p.abort_rate:.3f}",
            f"{p.mean_latency_cycles:.2f}",
            str(p.attempts),
        ]
        for mode, p in points.items()
    ]
    print()
    print(render_table(["server execution", "aborts", "latency", "attempts"], rows))

    base, inter = points[False], points[True]
    # The client-visible acceptance rates must not differ significantly.
    test = two_proportion_z(
        base.committed, base.attempts, inter.committed, inter.attempts
    )
    assert not test.significant(alpha=0.01), (
        f"interleaving changed client-visible behaviour (p={test.p_value:.4f})"
    )
    # And latency stays in the same band.
    assert abs(base.mean_latency_cycles - inter.mean_latency_cycles) < 1.5

"""V-multiversion retention ablation (Section 3.2).

Paper's claim: a V-multiversion server guarantees transactions with span
<= V and lets longer ones run at their own risk; V dials bandwidth
against concurrency.  Expected shape: abort rate falls monotonically as
V grows and hits zero once V covers the maximum span, while the bcast
length grows with V.
"""

from repro.experiments import retention
from repro.experiments.render import render_sweep
from tests.helpers import monotone_decreasing, monotone_increasing

SWEEP = (1, 4, 16)


def regenerate(paper_profile, paper_params):
    return retention.run(
        profile=paper_profile, params=paper_params, retention_sweep=SWEEP
    )


def test_retention_ablation(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep, precision=3))

    aborts = sweep.series["abort_rate"]
    slots = sweep.series["slots_per_cycle"]
    # More retained versions, fewer aborts...
    assert monotone_decreasing(sweep, "abort_rate", tolerance=0.05)
    # ...until the span is covered and nothing aborts at all.
    assert aborts[-1] == 0.0
    # Risky V=1 server must actually lose transactions.
    assert aborts[0] > 0.0
    # Bandwidth is the price: the bcast grows with V.
    assert monotone_increasing(sweep, "slots_per_cycle")

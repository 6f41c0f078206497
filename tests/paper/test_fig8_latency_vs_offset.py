"""Figure 8 (right): multiversion latency vs. offset.

Paper's shape: the smaller the overlap between the server-update and the
client-read patterns, the fewer reads need an old version from the end
of the bcast, so the multiversion latency penalty shrinks.
"""

import math

from repro.experiments import fig8
from repro.experiments.render import render_sweep

OFFSETS = (0, 30, 60)


def regenerate(paper_profile, paper_params):
    return fig8.run_right(
        profile=paper_profile, params=paper_params, offset_sweep=OFFSETS
    )


def test_fig8_latency_vs_offset(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep, precision=2))

    ys = sweep.series["multiversion"]
    assert all(not math.isnan(y) for y in ys)
    # Latency at maximal overlap is the worst (loose tolerance: one
    # half-cycle of noise on the reduced profile).
    assert ys[0] >= ys[-1] - 1.0
    # The cached variant is never slower than the plain one.
    cached = sweep.series["multiversion+cache"]
    for plain_y, cached_y in zip(ys, cached):
        if not math.isnan(cached_y):
            assert cached_y <= plain_y + 0.5

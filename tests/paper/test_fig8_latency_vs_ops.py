"""Figure 8 (left): latency (cycles per committed query) vs. query size.

Paper's shapes: latency grows with the number of operations (about half
a cycle per uncached read); only the multiversion-overflow organization
pays *extra* latency (old-version reads wait for the end of the bcast);
caching cuts latency sharply.
"""

import math

from repro.experiments import fig8
from repro.experiments.render import render_sweep

OPS = (4, 8, 16)
SCHEMES = ("inval", "inval+cache", "multiversion")


def regenerate(paper_profile, paper_params):
    return fig8.run_left(
        profile=paper_profile,
        params=paper_params,
        schemes=SCHEMES,
        ops_sweep=OPS,
    )


def test_fig8_latency_vs_ops(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep, precision=2))

    def valid(scheme):
        return [y for y in sweep.series[scheme] if not math.isnan(y)]

    # Shape 1: latency grows with query size wherever measured.
    for scheme in SCHEMES:
        ys = valid(scheme)
        assert all(b >= a - 1.0 for a, b in zip(ys, ys[1:])), scheme

    # Shape 2: caching cuts latency.
    for ops in OPS:
        cached = sweep.y("inval+cache", ops)
        plain = sweep.y("inval", ops)
        if not math.isnan(cached) and not math.isnan(plain):
            assert cached <= plain + 0.5

    # Shape 3: multiversion-overflow is the slowest committed path.
    mv = sweep.y("multiversion", OPS[-1])
    cached = sweep.y("inval+cache", OPS[-1])
    if not math.isnan(mv) and not math.isnan(cached):
        assert mv >= cached

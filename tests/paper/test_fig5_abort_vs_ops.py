"""Figure 5 (left): abort rate vs. operations per query.

Paper's shape: every aborting scheme's abort rate climbs with the query
size; SGT(+cache) stays lowest; the versioned cache is competitive with
SGT for short queries but falls behind for long ones.
"""

from repro.experiments import fig5
from repro.experiments.render import render_sweep

OPS = (4, 8, 16)
SCHEMES = ("inval", "inval+cache", "versioned-cache", "sgt+cache")


def regenerate(paper_profile, paper_params):
    return fig5.run_left(
        profile=paper_profile,
        params=paper_params,
        schemes=SCHEMES,
        ops_sweep=OPS,
    )


def test_fig5_abort_vs_ops(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep))

    # Shape 1: aborts grow with query size for the plain scheme.
    assert sweep.y("inval", OPS[-1]) >= sweep.y("inval", OPS[0]) - 0.05
    # Shape 2: SGT with cache beats plain invalidation-only everywhere.
    for ops in OPS:
        assert sweep.y("sgt+cache", ops) <= sweep.y("inval", ops) + 0.05
    # Shape 3: caching helps invalidation-only.
    for ops in OPS:
        assert sweep.y("inval+cache", ops) <= sweep.y("inval", ops) + 0.05

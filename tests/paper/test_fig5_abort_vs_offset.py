"""Figure 5 (right): abort rate vs. offset between the client-read and
server-update access patterns.

Paper's shape: abort rates peak at offset 0 (maximal overlap) and fall
as the update hot-spot moves away from the client's read hot-spot; at
small overlap SGT accepts (nearly) everything.
"""

from repro.experiments import fig5
from repro.experiments.render import render_sweep

OFFSETS = (0, 30, 60)
SCHEMES = ("inval", "versioned-cache", "sgt+cache")


def regenerate(paper_profile, paper_params):
    return fig5.run_right(
        profile=paper_profile,
        params=paper_params,
        schemes=SCHEMES,
        offset_sweep=OFFSETS,
    )


def test_fig5_abort_vs_offset(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep))

    # Shape 1: maximal overlap is worst for every scheme.
    for scheme in SCHEMES:
        assert sweep.y(scheme, 0) >= sweep.y(scheme, OFFSETS[-1]) - 0.05, scheme
    # Shape 2: at the largest offset SGT accepts nearly everything.
    assert sweep.y("sgt+cache", OFFSETS[-1]) <= 0.15

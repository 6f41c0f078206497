"""Figure 6: abort rate vs. the number of updates per cycle.

Paper's shapes: abort rates climb with server activity for every scheme;
the SGT advantage over invalidation-only shrinks as the graph densifies;
with heavy updates (over a quarter of the broadcast) the versioned cache
overtakes SGT.
"""

from repro.experiments import fig6
from repro.experiments.render import render_sweep

UPDATES = (12, 36, 80)
SCHEMES = ("inval", "versioned-cache", "sgt")


def regenerate(paper_profile, paper_params):
    return fig6.run(
        profile=paper_profile,
        params=paper_params,
        schemes=SCHEMES,
        update_sweep=UPDATES,
    )


def test_fig6_abort_vs_updates(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep))

    # Shape 1: more updates, more aborts.
    for scheme in SCHEMES:
        assert (
            sweep.y(scheme, UPDATES[-1]) >= sweep.y(scheme, UPDATES[0]) - 0.05
        ), scheme
    # Shape 2: SGT beats invalidation-only at low update rates...
    assert sweep.y("sgt", UPDATES[0]) <= sweep.y("inval", UPDATES[0])
    # ...but its advantage narrows as activity grows.
    low_gap = sweep.y("inval", UPDATES[0]) - sweep.y("sgt", UPDATES[0])
    high_gap = sweep.y("inval", UPDATES[-1]) - sweep.y("sgt", UPDATES[-1])
    assert high_gap <= low_gap + 0.1

"""Figure 7: broadcast-size increase vs. span and updates (analytic).

Paper's shapes and quoted operating point (U=50, span=3 on the 1000-item
broadcast): invalidation-only ~1%, multiversion ~12%, SGT a few percent,
multiversion caching ~2%.
"""

from repro.config import ModelParameters
from repro.experiments import fig7
from repro.experiments.render import render_sweep
from tests.helpers import monotone_increasing

PAPER_PARAMS = ModelParameters()  # the paper's D=1000 defaults


def regenerate():
    return (
        fig7.run_vs_span(params=PAPER_PARAMS),
        fig7.run_vs_updates(params=PAPER_PARAMS),
    )


def test_fig7_broadcast_size():
    vs_span, vs_updates = regenerate()
    print()
    print(render_sweep(vs_span, precision=2))
    print(render_sweep(vs_updates, precision=2))

    # Shapes: multiversion grows with span, invalidation-only does not.
    assert monotone_increasing(vs_span, "multiversion_overflow")
    inval = vs_span.series["invalidation_only"]
    assert all(v == inval[0] for v in inval)
    # Everything grows with the update rate.
    for scheme in vs_updates.series:
        assert monotone_increasing(vs_updates, scheme), scheme

    # The paper's Table-1 operating point (U=50, span=3), loose bands.
    row = {s: vs_updates.series[s][0] for s in vs_updates.series}
    assert row["invalidation_only"] < 2.0  # paper: ~1%
    assert 5.0 < row["multiversion_overflow"] < 25.0  # paper: ~12%
    assert row["sgt"] < 10.0  # paper: ~2.5%
    assert row["multiversion_caching"] < 5.0  # paper: ~1.8%
    # Ordering between the schemes matches Table 1.
    assert (
        row["invalidation_only"]
        < row["multiversion_caching"]
        < row["sgt"]
        < row["multiversion_overflow"]
    )

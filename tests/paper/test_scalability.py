"""The scalability claim: per-client quality independent of client count.

Not a numbered figure, but the paper's title property ("their performance
is independent of the number of clients") -- measured by sweeping the
audience size and checking the per-client abort rate and latency stay
flat while total throughput grows linearly.
"""

import math

from repro.experiments import scalability
from repro.experiments.render import render_sweep

CLIENTS = (2, 8, 16)


def regenerate(paper_profile, paper_params):
    return scalability.run(
        profile=paper_profile,
        params=paper_params,
        scheme="inval+cache",
        client_sweep=CLIENTS,
    )


def test_scalability(paper_profile, paper_params):
    sweep = regenerate(paper_profile, paper_params)
    print()
    print(render_sweep(sweep, precision=3))

    rates = sweep.series["abort_rate"]
    latencies = sweep.series["latency_cycles"]
    # Abort rate flat across an 8x audience change.
    assert max(rates) - min(rates) <= 0.2
    # Latency flat too.
    measured = [y for y in latencies if not math.isnan(y)]
    assert max(measured) - min(measured) <= 1.5
    # Total work done grows with the audience (same per-client rate).
    attempts = [p.attempts for p in sweep.points["abort_rate"]]
    assert attempts[-1] > attempts[0] * (CLIENTS[-1] / CLIENTS[0]) * 0.5

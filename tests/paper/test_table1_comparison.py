"""Table 1: the six-axis comparison of the four approaches, measured.

Paper's qualitative claims, checked quantitatively:

* concurrency: multiversion accepts everything; invalidation-only the
  least; SGT and multiversion-caching in between;
* currency: invalidation-only is the most current (lag 0), multiversion
  the least current;
* size: invalidation-only cheapest, multiversion most expensive;
* disconnections: multiversion tolerates them, the others suffer.
"""

from repro.experiments import table1


def regenerate(paper_profile, paper_params):
    return table1.run(profile=paper_profile, params=paper_params)


def test_table1_comparison(paper_profile, paper_params):
    result = regenerate(paper_profile, paper_params)
    print()
    print(result.render())

    connected = result.connected
    # Concurrency row: multiversion accepts all transactions.
    assert connected["multiversion"].acceptance_rate == 1.0
    assert (
        connected["multiversion"].acceptance_rate
        >= connected["sgt"].acceptance_rate
        >= connected["inval"].acceptance_rate - 0.05
    )
    assert (
        connected["mv-caching"].acceptance_rate
        >= connected["inval"].acceptance_rate - 0.05
    )

    # Currency row: invalidation-only lag 0; multiversion the oldest view.
    assert connected["inval"].mean_currency_lag == 0.0
    assert (
        connected["multiversion"].mean_currency_lag
        >= connected["mv-caching"].mean_currency_lag - 0.5
    )

    # Size row ordering (analytic, paper's Table 1).
    si = result.size_increase
    assert si["inval"] < si["mv-caching"] < si["sgt"] < si["multiversion"]

    # Disconnection row: multiversion's acceptance is unharmed; the
    # report-dependent schemes lose queries.
    assert result.disconnected["multiversion"].acceptance_rate >= 0.95
    assert (
        result.disconnected["inval"].acceptance_rate
        <= result.connected["inval"].acceptance_rate + 0.05
    )

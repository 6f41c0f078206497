"""Table 1: the qualitative comparison, with every row measured.

The paper's Table 1 compares invalidation-only, multiversion broadcast,
SGT, and multiversion caching along six axes.  We regenerate the table
from simulation at the default operating point, backing each qualitative
judgement with a number:

* concurrency          -> measured acceptance rate;
* processing overhead  -> measured control-segment share of the bcast;
* size                 -> analytic size increase (at the paper's quoted
                          U=50, span=3 operating point);
* latency              -> measured mean cycles per committed query;
* currency             -> measured mean currency lag (cycles between the
                          state read and the commit-time state);
* disconnections       -> measured acceptance rate when clients randomly
                          miss cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config import DEFAULTS, ModelParameters
from repro.experiments.render import render_table
from repro.experiments.runner import (
    CellOptions,
    DisconnectSpec,
    ExperimentProfile,
    FULL_PROFILE,
    PointResult,
    run_point,
)
from repro.server.sizing import SizeModel

#: The four columns of the paper's Table 1 (scheme registry labels).
TABLE1_SCHEMES: Sequence[str] = (
    "inval",
    "multiversion",
    "sgt",
    "mv-caching",
)

_SIZING_KEY = {
    "inval": "invalidation_only",
    "multiversion": "multiversion_overflow",
    "sgt": "sgt",
    "mv-caching": "multiversion_caching",
}


@dataclass
class Table1Result:
    """All measured quantities keyed by scheme label."""

    connected: Dict[str, PointResult]
    disconnected: Dict[str, PointResult]
    size_increase: Dict[str, float]
    control_share: Dict[str, float]

    def rows(self) -> List[List[str]]:
        def fmt(value: float, pattern: str = "{:.3f}") -> str:
            return pattern.format(value) if value == value else "-"

        rows = [
            ["concurrency (accept rate)"]
            + [fmt(self.connected[s].acceptance_rate) for s in TABLE1_SCHEMES],
            ["latency (cycles)"]
            + [
                fmt(self.connected[s].mean_latency_cycles, "{:.2f}")
                for s in TABLE1_SCHEMES
            ],
            ["currency lag (cycles)"]
            + [
                fmt(self.connected[s].mean_currency_lag, "{:.2f}")
                for s in TABLE1_SCHEMES
            ],
            ["size increase (%)"]
            + [fmt(self.size_increase[s], "{:.2f}") for s in TABLE1_SCHEMES],
            ["control share of bcast (%)"]
            + [fmt(self.control_share[s], "{:.2f}") for s in TABLE1_SCHEMES],
            ["accept rate w/ disconnections"]
            + [fmt(self.disconnected[s].acceptance_rate) for s in TABLE1_SCHEMES],
        ]
        return rows

    def render(self) -> str:
        headers = ["measure"] + list(TABLE1_SCHEMES)
        return render_table(
            headers, self.rows(), title="Table 1: comparison of the approaches"
        )


def run(
    profile: ExperimentProfile = FULL_PROFILE,
    params: ModelParameters = DEFAULTS,
    p_disconnect: float = 0.05,
    jobs: int = 1,
) -> Table1Result:
    connected: Dict[str, PointResult] = {}
    disconnected: Dict[str, PointResult] = {}
    size_increase: Dict[str, float] = {}
    control_share: Dict[str, float] = {}

    model = SizeModel(params.server)
    sizing_row = model.figure7_row(updates=50, span=3)

    disconnect_options = CellOptions(
        disconnect=DisconnectSpec(
            p_disconnect=p_disconnect, mean_outage_cycles=1.5
        )
    )
    for name in TABLE1_SCHEMES:
        connected[name] = run_point(
            params, name, profile, label=name, jobs=jobs
        )
        disconnected[name] = run_point(
            params,
            name,
            profile,
            label=name,
            jobs=jobs,
            options=disconnect_options,
        )
        size_increase[name] = sizing_row[_SIZING_KEY[name]]
        # Control share measured from the actual run's mean slot counts.
        total = connected[name].mean_cycle_slots
        data_slots = params.server.data_buckets
        control_share[name] = (
            100.0 * max(0.0, total - data_slots) / total if total else float("nan")
        )
    return Table1Result(
        connected=connected,
        disconnected=disconnected,
        size_increase=size_increase,
        control_share=control_share,
    )


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
) -> None:
    print(run(profile, jobs=jobs).render())


if __name__ == "__main__":
    main()

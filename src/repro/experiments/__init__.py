"""Experiment harness: regenerates every table and figure of the paper.

Each module reproduces one artifact of Section 5:

* :mod:`repro.experiments.fig5` -- abort rate vs. operations per query
  (left) and vs. client/server access-pattern offset (right);
* :mod:`repro.experiments.fig6` -- abort rate vs. number of updates;
* :mod:`repro.experiments.fig7` -- broadcast-size increase vs. span and
  updates (analytic, from :mod:`repro.server.sizing`);
* :mod:`repro.experiments.fig8` -- latency vs. operations per query
  (left) and multiversion latency vs. offset (right);
* :mod:`repro.experiments.table1` -- the qualitative comparison table,
  with every qualitative row backed by a measured quantity;
* :mod:`repro.experiments.scalability` -- the headline claim: performance
  independent of the number of clients.

All experiments run through :func:`repro.experiments.runner.run_point`
(multi-seed merge) and render via :mod:`repro.experiments.render`.
Sweeps enumerate their (scheme, x, seed) cells as a
:class:`repro.experiments.runner.SweepPlan`, so every figure accepts
``jobs=`` to map those cells over worker processes with byte-identical
output (``--jobs`` on the command line).
"""

from repro.experiments.runner import (
    Cell,
    CellOptions,
    CellResult,
    ExperimentProfile,
    FULL_PROFILE,
    PointResult,
    QUICK_PROFILE,
    SweepPlan,
    SweepResult,
    SweepStats,
    run_cell,
    run_cells,
    run_plan,
    run_point,
)
from repro.experiments.schemes import SCHEME_FACTORIES, scheme_factory

__all__ = [
    "Cell",
    "CellOptions",
    "CellResult",
    "ExperimentProfile",
    "FULL_PROFILE",
    "PointResult",
    "QUICK_PROFILE",
    "SCHEME_FACTORIES",
    "SweepPlan",
    "SweepResult",
    "SweepStats",
    "run_cell",
    "run_cells",
    "run_plan",
    "run_point",
    "scheme_factory",
]

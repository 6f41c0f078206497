"""Multi-seed experiment execution and result aggregation.

Every figure sweep is a grid of *cells* -- one simulation per
(scheme, x-value, seed) -- and every cell is independent by
construction: a :class:`~repro.runtime.Simulation` derives all of its
randomness from ``params.sim.seed``, so cells can run in any order, in
any process, and still produce bit-identical
:class:`~repro.stats.metrics.MetricsRegistry` contents.

* :class:`Cell` is a *picklable* cell spec: the scheme's registry name
  (resolved against :data:`repro.experiments.schemes.SCHEME_FACTORIES`
  inside the worker -- closures never cross the process boundary), the
  fully seed-applied :class:`~repro.config.ModelParameters`, and
  declarative :class:`CellOptions` for the few non-default simulation
  knobs the harness uses (sub-cycle reports, 2PL server, disconnects).
* :func:`run_cells` maps :func:`run_cell` over a cell list, inline or
  over a process pool; either way results come back in cell order.
* :class:`SweepPlan` enumerates a whole sweep's cells up front (the
  cross-point parallelism that makes ``--jobs`` worth having) and
  :func:`run_plan` folds their results into seed-ordered
  :class:`PointResult` points, so the :class:`SweepResult` is
  byte-identical whatever ``jobs`` is.

The determinism contract is enforced by
``tests/integration/test_parallel_oracle.py``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation, SimulationResult
from repro.stats.metrics import MetricsRegistry


@dataclass(frozen=True)
class ExperimentProfile:
    """How much simulation to spend per data point."""

    num_cycles: int
    warmup_cycles: int
    num_clients: int
    seeds: Sequence[int]

    def apply(self, params: ModelParameters, seed: int) -> ModelParameters:
        return params.with_sim(
            num_cycles=self.num_cycles,
            warmup_cycles=self.warmup_cycles,
            num_clients=self.num_clients,
            seed=seed,
        )


#: Paper-scale runs: enough committed queries per point for stable rates.
FULL_PROFILE = ExperimentProfile(
    num_cycles=150, warmup_cycles=10, num_clients=10, seeds=(11, 23)
)

#: Scaled-down runs for benchmarks and smoke tests.
QUICK_PROFILE = ExperimentProfile(
    num_cycles=50, warmup_cycles=5, num_clients=4, seeds=(11,)
)


@dataclass
class PointResult:
    """One (scheme, x-value) data point merged over seeds."""

    scheme: str
    committed: int = 0
    attempts: int = 0
    latency_sum: float = 0.0
    latency_n: int = 0
    span_sum: float = 0.0
    span_n: int = 0
    currency_sum: float = 0.0
    currency_n: int = 0
    slots_sum: float = 0.0
    slots_n: int = 0
    queries_completed: int = 0
    queries_total: int = 0

    def fold(self, result: SimulationResult) -> None:
        ratio = result.metrics.get_ratio("attempt.committed")
        if ratio is not None:
            self.committed += ratio.hits
            self.attempts += ratio.total
        completed = result.metrics.get_ratio("query.completed")
        if completed is not None:
            self.queries_completed += completed.hits
            self.queries_total += completed.total
        for name, attr in (
            ("txn.latency_cycles", "latency"),
            ("txn.span", "span"),
            ("txn.currency_lag", "currency"),
        ):
            sampler = result.metrics.get_sampler(name)
            if sampler is not None and sampler.count:
                setattr(
                    self,
                    f"{attr}_sum",
                    getattr(self, f"{attr}_sum") + sampler.mean * sampler.count,
                )
                setattr(self, f"{attr}_n", getattr(self, f"{attr}_n") + sampler.count)
        self.slots_sum += result.mean_cycle_slots
        self.slots_n += 1

    # -- derived measures ---------------------------------------------------

    @property
    def abort_rate(self) -> float:
        if self.attempts == 0:
            return float("nan")
        return 1.0 - self.committed / self.attempts

    @property
    def acceptance_rate(self) -> float:
        return 1.0 - self.abort_rate

    @property
    def mean_latency_cycles(self) -> float:
        return self.latency_sum / self.latency_n if self.latency_n else float("nan")

    @property
    def mean_span(self) -> float:
        return self.span_sum / self.span_n if self.span_n else float("nan")

    @property
    def mean_currency_lag(self) -> float:
        return (
            self.currency_sum / self.currency_n if self.currency_n else float("nan")
        )

    @property
    def mean_cycle_slots(self) -> float:
        return self.slots_sum / self.slots_n if self.slots_n else float("nan")

    @property
    def query_completion_rate(self) -> float:
        if self.queries_total == 0:
            return float("nan")
        return self.queries_completed / self.queries_total


# -- cells -------------------------------------------------------------------


@dataclass(frozen=True)
class DisconnectSpec:
    """Declarative stand-in for a disconnect-model factory closure."""

    p_disconnect: float
    mean_outage_cycles: float = 1.5

    def factory(self, rng):
        from repro.client.disconnect import RandomDisconnections

        return RandomDisconnections(
            p_disconnect=self.p_disconnect,
            mean_outage_cycles=self.mean_outage_cycles,
            rng=rng,
        )


@dataclass(frozen=True)
class CellOptions:
    """The picklable subset of :class:`Simulation` keyword options."""

    reports_per_cycle: int = 1
    report_window: int = 0
    interleaved_server: bool = False
    disconnect: Optional[DisconnectSpec] = None

    def simulation_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        if self.reports_per_cycle != 1 or self.report_window:
            from repro.core.control import ReportSchedule

            kwargs["report_schedule"] = ReportSchedule(
                per_cycle=self.reports_per_cycle, window=self.report_window
            )
        if self.interleaved_server:
            kwargs["interleaved_server"] = True
        if self.disconnect is not None:
            kwargs["disconnect_factory"] = self.disconnect.factory
        return kwargs


@dataclass(frozen=True)
class Cell:
    """One independent unit of sweep work.

    ``params`` must already be seed-applied (``profile.apply``): a cell
    is self-contained, so two cells never share state and a worker
    never needs the profile.
    """

    scheme: str
    params: ModelParameters
    seed: int
    options: CellOptions = field(default_factory=CellOptions)


@dataclass
class CellResult:
    """The picklable outcome of one cell.

    Carries exactly what :meth:`PointResult.fold` consumes (the metrics
    registry and the mean cycle length) -- never the client machines,
    which hold live generator frames and cannot cross processes.
    """

    scheme: str
    scheme_label: str
    seed: int
    metrics: MetricsRegistry
    cycles_completed: int
    mean_cycle_slots: float
    duration: float = 0.0


def run_cell(cell: Cell) -> CellResult:
    """Run one cell to completion; importable so workers can pickle it."""
    start = time.perf_counter()
    sim = Simulation(
        cell.params,
        scheme_factory=scheme_factory(cell.scheme),
        **cell.options.simulation_kwargs(),
    )
    result = sim.run()
    return CellResult(
        scheme=cell.scheme,
        scheme_label=result.scheme_label,
        seed=cell.seed,
        metrics=result.metrics,
        cycles_completed=result.cycles_completed,
        mean_cycle_slots=result.mean_cycle_slots,
        duration=time.perf_counter() - start,
    )


def run_cells(cells: Sequence[Cell], jobs: int = 1) -> Iterator[CellResult]:
    """Yield :func:`run_cell` of each cell, in cell order.

    ``jobs`` 1 runs the cells inline; N >= 2 maps them over N worker
    processes, 0 over one per CPU.  ``Executor.map`` yields in input
    order whatever order the workers finish in, so the caller sees the
    serial sequence either way.
    """
    if jobs == 1:
        yield from map(run_cell, cells)
        return
    with ProcessPoolExecutor(max_workers=jobs or os.cpu_count()) as pool:
        yield from pool.map(run_cell, cells)


def run_point(
    params: ModelParameters,
    scheme: Union[str, Callable[[], Scheme]],
    profile: ExperimentProfile,
    label: str = "",
    jobs: int = 1,
    options: Optional[CellOptions] = None,
    **simulation_kwargs,
) -> PointResult:
    """Run one configuration once per seed and merge the outcomes.

    ``scheme`` is preferably a registry name (see
    :mod:`repro.experiments.schemes`): named schemes run as cells, so
    ``jobs`` can fan the seeds out over worker processes and
    ``options`` declares the non-default simulation knobs picklably.

    A factory callable -- or any extra ``simulation_kwargs`` -- cannot
    cross a process boundary, so those points always run inline; the
    point's label is resolved lazily from the first run's scheme label
    instead of constructing a throwaway scheme instance.
    """
    if isinstance(scheme, str) and not simulation_kwargs:
        opts = options or CellOptions()
        cells = [
            Cell(scheme, profile.apply(params, seed), seed, opts)
            for seed in profile.seeds
        ]
        point = PointResult(scheme=label or scheme)
        for result in run_cells(cells, jobs):
            point.fold(result)
        return point

    factory = scheme if callable(scheme) else scheme_factory(scheme)
    point = PointResult(scheme=label)
    for seed in profile.seeds:
        sim = Simulation(
            profile.apply(params, seed), scheme_factory=factory, **simulation_kwargs
        )
        result = sim.run()
        if not point.scheme:
            point.scheme = result.scheme_label
        point.fold(result)
    return point


def write_sweep_csv(
    sweep: "SweepResult",
    path: str,
    params: Optional[ModelParameters] = None,
    profile: Optional[ExperimentProfile] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a sweep CSV with provenance: a sibling manifest JSON plus
    leading ``# manifest:`` / ``# seeds:`` comment rows in the CSV.

    The manifest records the full parameter tree, the seed list, the git
    revision, and the package versions, so the CSV can always be traced
    back to the exact configuration that produced it.
    """
    from repro.experiments.render import sweep_to_csv
    from repro.obs.manifest import write_manifest

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    seeds = tuple(profile.seeds) if profile is not None else ()
    manifest_extra = {"experiment": sweep.name, "x_label": sweep.x_label}
    if profile is not None:
        manifest_extra.update(
            num_cycles=profile.num_cycles,
            warmup_cycles=profile.warmup_cycles,
            num_clients=profile.num_clients,
        )
    if sweep.stats is not None:
        manifest_extra.update(sweep.stats.manifest_extra())
    manifest_extra.update(extra or {})
    manifest_path = write_manifest(
        str(target.with_suffix(".manifest.json")),
        params=params,
        seeds=seeds,
        extra=manifest_extra,
    )
    provenance = {"manifest": manifest_path.name}
    if seeds:
        provenance["seeds"] = " ".join(str(s) for s in seeds)
    target.write_text(sweep_to_csv(sweep, provenance=provenance))
    return target


@dataclass
class SweepStats:
    """Execution accounting for one sweep (how, not what).

    Deliberately separate from the measurements themselves: two runs of the
    same sweep at different ``--jobs`` produce identical series but
    different stats, so stats go to the manifest, never the CSV rows.
    """

    jobs: int = 1
    cells: int = 0
    wall_s: float = 0.0
    #: Sum of per-cell durations.
    cpu_s: float = 0.0
    #: Per-cell wall durations, in cell order.
    durations: List[float] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Aggregate cell time over wall time: the parallel win."""
        return self.cpu_s / self.wall_s if self.wall_s else float("nan")

    def manifest_extra(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "cells": self.cells,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "cell_durations": list(self.durations),
        }


@dataclass
class SweepResult:
    """A family of series over one swept parameter (one figure panel)."""

    name: str
    x_label: str
    xs: List[float]
    y_label: str
    #: series label -> y value per x (NaN for missing points).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: series label -> PointResult per x, for deeper inspection.
    points: Dict[str, List[PointResult]] = field(default_factory=dict)
    #: Execution accounting when run as a :class:`SweepPlan`.
    stats: Optional[SweepStats] = None

    def add_point(self, series: str, point: PointResult, y: float) -> None:
        self.series.setdefault(series, []).append(y)
        self.points.setdefault(series, []).append(point)

    def y(self, series: str, x: float) -> float:
        """The series value at ``x``, matching floats tolerantly.

        Sweeps store x values as floats, so a caller asking for the
        value at e.g. ``0.30000000000000004`` (a sum of thirds) or at
        the int ``24`` must still hit the right column; exact
        ``list.index`` matching raised spurious ``ValueError``s.
        """
        for i, known in enumerate(self.xs):
            if math.isclose(known, x, rel_tol=1e-9, abs_tol=1e-12):
                return self.series[series][i]
        raise ValueError(f"x={x!r} is not a swept value (xs={self.xs})")


# -- sweep plans -------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec:
    """One (series, x) grid point of a sweep, before seeds are applied.

    ``measures`` maps series labels to :class:`PointResult` attribute
    names; most figures chart one measure per scheme, but e.g. the
    scalability sweep derives two series from every point.
    """

    scheme: str
    params: ModelParameters
    x: float
    label: str = ""
    measures: Tuple[Tuple[str, str], ...] = ()
    options: CellOptions = field(default_factory=CellOptions)
    #: Override the profile's client count (the scalability sweep's axis).
    clients: Optional[int] = None

    def cell_params(
        self, profile: ExperimentProfile, seed: int
    ) -> ModelParameters:
        params = profile.apply(self.params, seed)
        if self.clients is not None:
            params = params.with_sim(num_clients=self.clients)
        return params


@dataclass
class SweepPlan:
    """A sweep with every cell enumerable up front."""

    name: str
    x_label: str
    y_label: str
    xs: List[float]
    points: List[PointSpec] = field(default_factory=list)

    def add(
        self,
        scheme: str,
        params: ModelParameters,
        x: float,
        series: str,
        measure: str = "abort_rate",
        label: str = "",
        options: Optional[CellOptions] = None,
        clients: Optional[int] = None,
    ) -> None:
        self.points.append(
            PointSpec(
                scheme=scheme,
                params=params,
                x=float(x),
                label=label or series,
                measures=((series, measure),),
                options=options or CellOptions(),
                clients=clients,
            )
        )

    def cells(self, profile: ExperimentProfile) -> List[Cell]:
        """The full cell grid, point-major then seed order."""
        return [
            Cell(
                scheme=spec.scheme,
                params=spec.cell_params(profile, seed),
                seed=seed,
                options=spec.options,
            )
            for spec in self.points
            for seed in profile.seeds
        ]


def run_plan(
    plan: SweepPlan,
    profile: ExperimentProfile,
    jobs: int = 1,
    verbose: bool = False,
) -> SweepResult:
    """Run a plan's cells and fold them into a :class:`SweepResult`.

    Points fold their cells in ``profile.seeds`` order and series fill
    in plan order, so the resulting CSV is byte-identical whatever
    ``jobs`` is.  ``verbose`` prints one stderr line per cell, in cell
    order, and a wall/cpu summary.
    """
    cells = plan.cells(profile)
    start = time.perf_counter()
    results: List[CellResult] = []
    for result in run_cells(cells, jobs):
        results.append(result)
        if verbose:
            print(
                f"[{plan.name} {len(results)}/{len(cells)}] "
                f"{result.scheme} seed={result.seed}: {result.duration:.2f}s",
                file=sys.stderr,
            )
    stats = SweepStats(
        jobs=jobs or os.cpu_count(),
        cells=len(cells),
        wall_s=time.perf_counter() - start,
        cpu_s=sum(r.duration for r in results),
        durations=[round(r.duration, 6) for r in results],
    )
    if verbose:
        print(
            f"{plan.name}: {stats.cells} cells in {stats.wall_s:.2f}s wall / "
            f"{stats.cpu_s:.2f}s cpu, speedup {stats.speedup:.2f}x "
            f"(jobs={stats.jobs})",
            file=sys.stderr,
        )

    sweep = SweepResult(
        name=plan.name,
        x_label=plan.x_label,
        xs=list(plan.xs),
        y_label=plan.y_label,
        stats=stats,
    )
    seeds_per_point = len(profile.seeds)
    for point_index, spec in enumerate(plan.points):
        point = PointResult(scheme=spec.label or spec.scheme)
        lo = point_index * seeds_per_point
        for result in results[lo : lo + seeds_per_point]:
            point.fold(result)
        for series, measure in spec.measures:
            sweep.add_point(series, point, getattr(point, measure))
    return sweep

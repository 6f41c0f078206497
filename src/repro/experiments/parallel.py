"""Parallel sweep execution: shard (scheme, x, seed) cells over processes.

Every figure sweep is a grid of *cells* -- one simulation per
(scheme, x-value, seed) -- and every cell is independent by
construction: a :class:`~repro.runtime.Simulation` derives all of its
randomness from ``params.sim.seed``, so cells can run in any order, in
any process, and still produce bit-identical
:class:`~repro.stats.metrics.MetricsRegistry` contents.

This module exploits that:

* :class:`Cell` is a *picklable* cell spec: the scheme's registry name
  (resolved against :data:`repro.experiments.schemes.SCHEME_FACTORIES`
  inside the worker -- closures never cross the process boundary), the
  fully seed-applied :class:`~repro.config.ModelParameters`, and
  declarative :class:`CellOptions` for the few non-default simulation
  knobs the harness uses (sub-cycle reports, 2PL server, disconnects).
* :class:`SerialExecutor` / :class:`ProcessExecutor` run a cell list;
  the parallel executor farms cells to a ``ProcessPoolExecutor`` and
  reassembles results **in submission order**, so the fold downstream
  is independent of completion order.
* :class:`SweepPlan` enumerates a whole sweep's cells up front (the
  cross-point parallelism that makes ``--jobs`` worth having) and
  :func:`run_plan` merges cell results back into seed-ordered
  :class:`~repro.experiments.runner.PointResult` folds -- the output
  :class:`~repro.experiments.runner.SweepResult` is byte-identical to
  the serial path's CSV.
* :class:`CellCache` is a resumable on-disk cache keyed by a hash of
  the cell's full provenance (params, scheme, seed, options, code
  revision), so a killed sweep restarts without redoing finished
  cells.

The determinism contract is enforced by the oracle suite
(``tests/integration/test_parallel_oracle.py``) and by :func:`check`,
which CI runs through the experiments entry point::

    python -m repro experiments --check --jobs 2
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import ModelParameters
from repro.experiments.runner import (
    ExperimentProfile,
    PointResult,
    SweepResult,
    SweepStats,
)
from repro.experiments.schemes import scheme_factory
from repro.obs.trace import EV_SWEEP_CELL, EV_SWEEP_DONE, Tracer, gate
from repro.runtime import Simulation
from repro.stats.metrics import MetricsRegistry

# -- cell specs --------------------------------------------------------------


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
    is self-contained, so two cells never share state and the executor
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
    cached: bool = False


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


# -- the resumable cell cache ------------------------------------------------


@lru_cache(maxsize=1)
def _code_revision() -> str:
    from repro import __version__
    from repro.obs.manifest import git_revision

    return f"{__version__}@{git_revision()}"


def cell_key(cell: Cell) -> str:
    """Stable content hash of a cell's full provenance.

    Includes the package version and git revision, so results cached
    under one build are never replayed against another.
    """
    payload = {
        "scheme": cell.scheme,
        "seed": cell.seed,
        "params": dataclasses.asdict(cell.params),
        "options": dataclasses.asdict(cell.options),
        "code": _code_revision(),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """On-disk cache of finished cells, keyed by :func:`cell_key`.

    A killed sweep restarts without redoing finished cells: each cell
    result is written atomically (temp file + rename) the moment it
    completes, so the cache is always a consistent prefix of the sweep.
    """

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, cell: Cell) -> Path:
        return self.root / f"{cell_key(cell)}.pkl"

    def load(self, cell: Cell) -> Optional[CellResult]:
        try:
            data = self.path(cell).read_bytes()
            result = pickle.loads(data)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            self.misses += 1
            return None
        if not isinstance(result, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        result.cached = True
        result.duration = 0.0
        return result

    def store(self, cell: Cell, result: CellResult) -> None:
        target = self.path(cell)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(pickle.dumps(result))
        os.replace(tmp, target)


# -- executors ---------------------------------------------------------------

ProgressFn = Callable[[int, Cell, CellResult], None]


class SerialExecutor:
    """Runs cells inline, in order: the byte-identical baseline."""

    jobs = 1

    def run(
        self, cells: Sequence[Cell], progress: Optional[ProgressFn] = None
    ) -> List[CellResult]:
        results: List[CellResult] = []
        for index, cell in enumerate(cells):
            result = run_cell(cell)
            if progress is not None:
                progress(index, cell, result)
            results.append(result)
        return results


class ProcessExecutor:
    """Farms cells to a process pool; results come back in input order.

    Completion order is nondeterministic, merge order is not: results
    are slotted back by submission index, so everything downstream of
    the executor sees exactly the serial sequence.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"ProcessExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs

    def run(
        self, cells: Sequence[Cell], progress: Optional[ProgressFn] = None
    ) -> List[CellResult]:
        results: List[Optional[CellResult]] = [None] * len(cells)
        if not cells:
            return []
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(run_cell, cell): index
                for index, cell in enumerate(cells)
            }
            for future in as_completed(futures):
                index = futures[future]
                result = future.result()
                results[index] = result
                if progress is not None:
                    progress(index, cells[index], result)
        return results  # type: ignore[return-value]


def make_executor(jobs: Optional[int]):
    """``None``/1 -> serial; 0 -> one worker per CPU; N -> N workers."""
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


def _execute(
    cells: Sequence[Cell],
    executor,
    cache: Optional[CellCache],
    progress: Optional[ProgressFn],
) -> List[CellResult]:
    """Run ``cells`` through ``executor`` with cache short-circuiting.

    Returns results in cell order no matter which subset was cached or
    in which order the workers finished.
    """
    if cache is None:
        return executor.run(cells, progress=progress)

    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[Tuple[int, Cell]] = []
    for index, cell in enumerate(cells):
        hit = cache.load(cell)
        if hit is not None:
            results[index] = hit
            if progress is not None:
                progress(index, cell, hit)
        else:
            pending.append((index, cell))

    if pending:
        indices = [index for index, _ in pending]
        fresh_cells = [cell for _, cell in pending]

        def relay(local_index: int, cell: Cell, result: CellResult) -> None:
            cache.store(cell, result)
            if progress is not None:
                progress(indices[local_index], cell, result)

        for local_index, result in enumerate(
            executor.run(fresh_cells, progress=relay)
        ):
            results[indices[local_index]] = result
    return results  # type: ignore[return-value]


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
    executor=None,
    cache: Optional[CellCache] = None,
    verbose: bool = False,
    tracer: Optional[Tracer] = None,
) -> SweepResult:
    """Execute a plan and fold cells back into a :class:`SweepResult`.

    The merge is deterministic: points fold their cells in
    ``profile.seeds`` order and series fill in plan order, so the
    resulting CSV is byte-identical whatever ``executor.jobs`` is.
    """
    executor = executor or SerialExecutor()
    cells = plan.cells(profile)
    trace_cells = gate(tracer, "cycles")
    done = 0

    def progress(index: int, cell: Cell, result: CellResult) -> None:
        nonlocal done
        done += 1
        if trace_cells is not None:
            trace_cells.emit(
                EV_SWEEP_CELL,
                sweep=plan.name,
                scheme=cell.scheme,
                seed=cell.seed,
                duration=round(result.duration, 6),
                cached=result.cached,
            )
        if verbose:
            state = "cached" if result.cached else f"{result.duration:.2f}s"
            print(
                f"[{plan.name} {done}/{len(cells)}] "
                f"{cell.scheme} seed={cell.seed}: {state}",
                file=sys.stderr,
            )

    start = time.perf_counter()
    results = _execute(cells, executor, cache, progress)
    wall = time.perf_counter() - start

    stats = SweepStats(
        jobs=executor.jobs,
        cells=len(cells),
        cached=sum(1 for r in results if r.cached),
        wall_s=wall,
        cpu_s=sum(r.duration for r in results),
        durations=[round(r.duration, 6) for r in results],
    )
    if trace_cells is not None:
        trace_cells.emit(
            EV_SWEEP_DONE,
            sweep=plan.name,
            jobs=stats.jobs,
            cells=stats.cells,
            cached=stats.cached,
            wall_s=round(stats.wall_s, 6),
            cpu_s=round(stats.cpu_s, 6),
        )
    if verbose:
        print(
            f"{plan.name}: {stats.cells} cells in {stats.wall_s:.2f}s wall / "
            f"{stats.cpu_s:.2f}s cpu, speedup {stats.speedup:.2f}x "
            f"(jobs={stats.jobs}, {stats.cached} cached)",
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


def run_point_cells(
    scheme: str,
    params: ModelParameters,
    profile: ExperimentProfile,
    label: str = "",
    executor=None,
    options: Optional[CellOptions] = None,
    cache: Optional[CellCache] = None,
) -> PointResult:
    """One grid point through the cell machinery (``run_point`` backend)."""
    opts = options or CellOptions()
    cells = [
        Cell(scheme, profile.apply(params, seed), seed, opts)
        for seed in profile.seeds
    ]
    results = _execute(cells, executor or SerialExecutor(), cache, None)
    point = PointResult(scheme=label or scheme)
    for result in results:
        point.fold(result)
    return point


# -- the experiment registry for the determinism oracle ----------------------


def oracle_experiments() -> Dict[str, Callable[..., SweepResult]]:
    """Every registered sweep experiment, by name.

    Each value accepts ``(profile=..., params=..., executor=..., **kw)``
    and returns a :class:`SweepResult`; the determinism oracle (tests
    and :func:`check`) runs each one serially and with
    ``--jobs {1,2,4}`` and requires byte-identical CSV output.

    Imported lazily: the figure modules import this module for
    :func:`run_plan`, so a top-level import here would be circular.
    """
    from repro.experiments import (
        faults,
        fig5,
        fig6,
        fig8,
        retention,
        scalability,
    )

    return {
        "fig5-left": fig5.run_left,
        "fig5-right": fig5.run_right,
        "fig6": fig6.run,
        "fig8-left": fig8.run_left,
        "fig8-right": fig8.run_right,
        "scalability": scalability.run,
        "retention": retention.run,
        "faults": faults.run_loss_sweep,
    }


#: Reduced sweep kwargs per experiment so the oracle stays fast; the
#: determinism contract is scale-free, so small grids pin it as well as
#: the paper-scale ones.
TINY_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig5-left": {"schemes": ("inval", "sgt+cache"), "ops_sweep": (2, 4)},
    "fig5-right": {"schemes": ("inval",), "offset_sweep": (0, 20)},
    "fig6": {"schemes": ("inval", "mv-caching"), "update_sweep": (5, 15)},
    "fig8-left": {"schemes": ("inval+cache",), "ops_sweep": (2, 4)},
    "fig8-right": {"offset_sweep": (0, 20)},
    "scalability": {"scheme": "inval+cache", "client_sweep": (1, 3)},
    "retention": {"retention_sweep": (2, 6)},
    "faults": {"schemes": ("inval", "multiversion"), "loss_sweep": (0.0, 0.1)},
}

#: Small world for :func:`check` (mirrors the test suite's tiny
#: configurations: 100 items, 10 buckets/cycle, moderate contention).
SMOKE_PARAMS = (
    ModelParameters()
    .with_server(
        broadcast_size=100,
        update_range=50,
        offset=10,
        updates_per_cycle=10,
        transactions_per_cycle=5,
        items_per_bucket=10,
        retention=12,
    )
    .with_client(read_range=40, ops_per_query=4, think_time=0.5, cache_size=20)
)

SMOKE_PROFILE = ExperimentProfile(
    num_cycles=30, warmup_cycles=3, num_clients=3, seeds=(5, 9)
)


# -- check entry point (CI) --------------------------------------------------


def check_experiment(
    name: str,
    jobs: int,
    profile: ExperimentProfile = SMOKE_PROFILE,
    params: ModelParameters = SMOKE_PARAMS,
    artifacts: Optional[str] = None,
) -> bool:
    """Parallel-vs-serial oracle for one experiment; True when identical.

    Writes both CSVs (and, on mismatch, a unified diff) under
    ``artifacts`` when given, so CI can upload the evidence.
    """
    from repro.experiments.render import sweep_to_csv
    from repro.experiments.runner import write_sweep_csv

    runner = oracle_experiments()[name]
    kwargs = dict(TINY_OVERRIDES.get(name, {}))
    serial = runner(profile=profile, params=params, **kwargs)
    parallel = runner(
        profile=profile, params=params, executor=make_executor(jobs), **kwargs
    )
    serial_csv = sweep_to_csv(serial)
    parallel_csv = sweep_to_csv(parallel)
    identical = serial_csv == parallel_csv

    if artifacts is not None:
        out = Path(artifacts)
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(
            serial, str(out / f"{name}.serial.csv"), params=params, profile=profile
        )
        write_sweep_csv(
            parallel,
            str(out / f"{name}.jobs{jobs}.csv"),
            params=params,
            profile=profile,
        )
        if not identical:
            import difflib

            diff = "\n".join(
                difflib.unified_diff(
                    serial_csv.splitlines(),
                    parallel_csv.splitlines(),
                    fromfile=f"{name} serial",
                    tofile=f"{name} jobs={jobs}",
                    lineterm="",
                )
            )
            (out / f"{name}.diff").write_text(diff + "\n")
    return identical


def check(names: Sequence[str], jobs: int, artifacts: Optional[str]) -> int:
    """Run :func:`check_experiment` over ``names`` (default: every
    registered sweep); the exit code of ``repro experiments --check``."""
    registered = oracle_experiments()
    names = list(names) or sorted(registered)
    unknown = [n for n in names if n not in registered]
    if unknown:
        known = ", ".join(sorted(registered))
        print(f"Unknown experiment(s): {', '.join(unknown)}; known: {known}")
        return 2
    failures = []
    for name in names:
        ok = check_experiment(name, jobs=jobs, artifacts=artifacts)
        print(f"{name}: {'identical' if ok else 'MISMATCH'} (jobs={jobs})")
        if not ok:
            failures.append(name)
    if failures:
        print(f"determinism oracle FAILED: {', '.join(failures)}")
        return 1
    print(f"determinism oracle green for {len(names)} experiment(s)")
    return 0

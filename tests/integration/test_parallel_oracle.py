"""The parallel-vs-serial determinism oracle (the headline suite).

For every registered experiment, running its cells over a process pool
with ``jobs`` in {1, 2, 4} must produce output *byte-identical* to the
plain serial path: same rendered text, same :class:`PointResult` fields,
same series values.  Any divergence means cell sharding leaked
nondeterminism (completion-order merging, seed drift, unpicklable state
reconstructed differently) and the whole "--jobs N is free" contract is
void.
"""

import dataclasses
from typing import Any, Callable, Dict

import pytest

from repro.config import ModelParameters
from repro.experiments import (
    faults,
    fig5,
    fig6,
    fig8,
    resilience,
    retention,
    scalability,
    table1,
)
from repro.experiments.render import sweep_to_csv
from repro.experiments.runner import (
    Cell,
    ExperimentProfile,
    SweepResult,
    run_cells,
)
from repro.experiments.table1 import Table1Result

#: Every experiment that takes ``jobs``, by name.  Each accepts
#: ``(profile=..., params=..., jobs=..., **TINY_OVERRIDES[name])``.
ORACLE_EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    "fig5-left": fig5.run_left,
    "fig5-right": fig5.run_right,
    "fig6": fig6.run,
    "fig8-left": fig8.run_left,
    "fig8-right": fig8.run_right,
    "scalability": scalability.run,
    "retention": retention.run,
    "faults": faults.run_loss_sweep,
    "faults-counters": faults.fault_counter_rows,
    "resilience": resilience.run_policy_sweep,
    "resilience-recovery": resilience.recovery_rows,
    "table1": table1.run,
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

#: A small world (100 items, 10 buckets/cycle, moderate contention).
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

EXPERIMENTS = sorted(ORACLE_EXPERIMENTS)
JOBS = (1, 2, 4)

_serial_memo = {}


def _run(name, jobs):
    return ORACLE_EXPERIMENTS[name](
        profile=SMOKE_PROFILE,
        params=SMOKE_PARAMS,
        jobs=jobs,
        **TINY_OVERRIDES.get(name, {}),
    )


def _serial(name):
    """Serial reference run, computed once per experiment."""
    if name not in _serial_memo:
        _serial_memo[name] = _run(name, 1)
    return _serial_memo[name]


def _rendered(result) -> str:
    if isinstance(result, SweepResult):
        return sweep_to_csv(result)
    if isinstance(result, Table1Result):
        return result.render()
    return "\n".join(",".join(row) for row in result)


def _points(result) -> Dict[str, list]:
    if isinstance(result, SweepResult):
        return result.points
    if isinstance(result, Table1Result):
        return {
            "connected": list(result.connected.values()),
            "disconnected": list(result.disconnected.values()),
        }
    return {}


def test_registry_covers_every_sweep_experiment():
    assert EXPERIMENTS == sorted(
        [
            "fig5-left",
            "fig5-right",
            "fig6",
            "fig8-left",
            "fig8-right",
            "scalability",
            "retention",
            "faults",
            "faults-counters",
            "resilience",
            "resilience-recovery",
            "table1",
        ]
    )


@pytest.mark.parametrize("jobs", JOBS)
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_parallel_output_is_byte_identical(name, jobs):
    serial = _serial(name)
    parallel = _run(name, jobs)

    assert _rendered(parallel) == _rendered(serial)

    # Same claim again at the object level, field by field, so a
    # formatting coincidence can never mask a real divergence.
    if isinstance(serial, SweepResult):
        assert parallel.xs == serial.xs
        assert parallel.series == serial.series
    serial_points, parallel_points = _points(serial), _points(parallel)
    assert sorted(parallel_points) == sorted(serial_points)
    for series, want_points in serial_points.items():
        got_points = parallel_points[series]
        assert len(got_points) == len(want_points)
        for got, want in zip(got_points, want_points):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_raising_cell_raises_in_the_caller(jobs):
    cells = [
        Cell(scheme, SMOKE_PROFILE.apply(SMOKE_PARAMS, 5), seed=5)
        for scheme in ("inval", "no-such-scheme")
    ]
    with pytest.raises(KeyError, match="no-such-scheme"):
        list(run_cells(cells, jobs))

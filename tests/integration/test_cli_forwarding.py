"""One experiments parser behind both entry points.

``repro experiments`` registers :func:`repro.experiments.__main__.add_arguments`
and dispatches to its :func:`~repro.experiments.__main__.run`, so the two
entry points cannot drift: these tests set every flag off its default
and require both to hand ``run`` the same namespace, and pin how
``--check`` reaches the parallel-vs-serial oracle.
"""

import pytest

import repro.experiments.__main__ as experiments
from repro.cli import main
from repro.experiments import parallel
from repro.faults.presets import preset_names

EVERY_FLAG = [
    "fig5", "fig6",
    "--quick",
    "--jobs", "3",
    "--cache", "cachedir",
    "--progress",
    "--preset", "deep-fade",
    "--cohorts",
    "--cohort-out", "cohort.json",
    "--shard-out", "shard.json",
    "--check",
    "--artifacts", "outdir",
]


def _capture(monkeypatch, module, attr):
    calls = []

    def fake(*args):
        calls.append(args)
        return 0

    monkeypatch.setattr(module, attr, fake)
    return calls


def test_both_entry_points_hand_run_the_same_namespace(monkeypatch):
    calls = _capture(monkeypatch, experiments, "run")
    assert main(["experiments", *EVERY_FLAG]) == 0
    assert experiments.main(EVERY_FLAG) == 0
    (via_cli,), (via_module,) = calls
    assert via_cli.command == "experiments"
    del via_cli.command
    assert via_cli == via_module

    # Every flag the parser declares is off its default above, so a flag
    # added later without a case here fails this test.
    assert experiments.main([]) == 0
    defaults = vars(calls[-1][0])
    assert sorted(defaults) == sorted(vars(via_module))
    for dest, default in defaults.items():
        assert getattr(via_module, dest) != default, dest
    assert via_module.preset in preset_names()


@pytest.mark.parametrize("jobs, floored", [("4", 4), ("1", 2)])
def test_experiments_check_forwards_to_the_parallel_oracle(
    monkeypatch, jobs, floored
):
    """--check needs >= 2 workers to mean anything, so --jobs is floored."""
    calls = _capture(monkeypatch, parallel, "check")
    argv = ["experiments", "fig5-left", "--check", "--jobs", jobs]
    assert main(argv + ["--artifacts", "outdir"]) == 0
    assert calls == [(["fig5-left"], floored, "outdir")]


def test_experiments_check_serial_request_still_runs_parallel_oracle(monkeypatch):
    calls = _capture(monkeypatch, parallel, "check")
    assert main(["experiments", "--check"]) == 0
    assert experiments.main(["--check"]) == 0
    assert calls == [([], 2, None), ([], 2, None)]

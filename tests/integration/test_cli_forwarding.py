"""One experiments parser behind both entry points.

``repro experiments`` registers :func:`repro.experiments.__main__.add_arguments`
and dispatches to its :func:`~repro.experiments.__main__.run`, so the two
entry points cannot drift: these tests set every flag off its default
and require both to hand ``run`` the same namespace, and to refuse the
same bad ``--jobs``.
"""

import pytest

import repro.experiments.__main__ as experiments
from repro.cli import main
from repro.faults.presets import preset_names

EVERY_FLAG = [
    "fig5", "fig6",
    "--quick",
    "--jobs", "3",
    "--progress",
    "--preset", "deep-fade",
    "--cohorts",
    "--cohort-out", "cohort.json",
    "--shard-out", "shard.json",
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


@pytest.mark.parametrize(
    "entry",
    [lambda argv: main(["experiments", *argv]), experiments.main],
    ids=["repro-experiments", "python-m-repro.experiments"],
)
def test_both_entry_points_refuse_a_negative_job_count(monkeypatch, capsys, entry):
    calls = _capture(monkeypatch, experiments, "run")
    with pytest.raises(SystemExit) as exit_info:
        entry(["fig6", "--jobs", "-1"])
    assert exit_info.value.code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "argument --jobs: must be >= 0, got -1" in err
    assert err.count("error:") == 1

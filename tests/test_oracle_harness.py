"""The one differential-oracle harness (``python -m repro.oracle``).

Matrices are counted from each mode's ``matrix()`` without running a
cell; the loop's verdicts are driven by stub thunks.
"""

import json
import time

import pytest

from repro import oracle
from repro.resilience import oracle as resilience


@pytest.mark.parametrize(
    "mode,count", [("cohort", 150), ("shard", 178), ("live", 27), ("resilience", 54)]
)
def test_default_matrix_sizes_and_unique_labels(mode, count):
    labels = [label for label, _ in oracle.cells(mode)]
    assert len(labels) == count
    assert len(set(labels)) == count
    assert len({oracle.artifact_name(label) for label in labels}) == count


@pytest.mark.parametrize(
    "argv,count",
    [
        (["cohort", "--clients", "1", "4", "--seeds", "7", "11", "23"], 60),
        (["shard", "--seeds", "7", "42"], 148),
    ],
)
def test_ci_slices(argv, count):
    args = oracle.build_parser().parse_args(argv)
    matrix = oracle.cells(args.mode, args.schemes, args.seeds, args.clients, args.cycles)
    assert len(matrix) == count


def test_one_parser_with_seven_settable_values():
    parser = oracle.build_parser()
    settable = [a for a in parser._actions if a.dest != "help"]
    assert len(settable) == 7


def test_spent_budget_runs_nothing_and_fails(capsys):
    assert oracle.main(["cohort", "--max-seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert "the matrix is empty" in out
    # every skipped cell is listed by its label
    assert out.count("[skip] ") == 150
    assert "[skip] inval N=1 seed=7 faults=off" in out


def test_empty_matrix_fails(capsys):
    assert oracle.run([]) == 1
    assert "the matrix is empty" in capsys.readouterr().out


def _clean():
    return {"mismatches": []}


def test_failing_cell_writes_one_artifact_and_fails(tmp_path, capsys):
    bad = {"mismatches": [{"metric": "m", "reference": 1, "candidate": 2}], "x": 3}
    matrix = [
        ("stub clean N=1 seed=7", _clean),
        ("stub bad N=2 seed=9", lambda: bad),
        ("stub clean N=3 seed=7", _clean),
    ]
    assert oracle.run(matrix, artifacts=tmp_path) == 1
    files = list(tmp_path.iterdir())
    assert [f.name for f in files] == [oracle.artifact_name("stub bad N=2 seed=9")]
    evidence = json.loads(files[0].read_text())
    assert evidence == {"label": "stub bad N=2 seed=9", **bad}
    assert "FAIL: 2/3 cells clean" in capsys.readouterr().out


def test_clean_matrix_passes_and_writes_nothing(tmp_path, capsys):
    assert oracle.run([("a", _clean), ("b", _clean)], artifacts=tmp_path) == 0
    assert list(tmp_path.iterdir()) == []
    assert "PASS: 2/2 cells clean" in capsys.readouterr().out


def test_budget_skips_are_not_failures(capsys):
    def slow():
        time.sleep(0.2)
        return {"mismatches": []}

    matrix = [("first", slow), ("second", slow)]
    assert oracle.run(matrix, max_seconds=0.1) == 0
    out = capsys.readouterr().out
    assert "[ok] first" in out
    assert "[skip] second" in out
    assert "PASS: 1/1 cells clean, 1 skipped (runtime budget)" in out


def _crash_report(scheme="inval+cache", seed=201, **counts):
    report = {
        "scheme": scheme,
        "fault_mix": "slot-loss",
        "policy": "immediate",
        "clients": 3,
        "seed": seed,
        "crashes": 2,
        "restores": 1,
        "recovered_clients": 1,
        "expected_recoveries": 1,
        "mismatches": [],
    }
    report.update(counts)
    return report


def test_resilience_check_passes_an_exercised_matrix():
    assert resilience.check([_crash_report(), _crash_report(seed=202)]) == []


@pytest.mark.parametrize(
    "zeroed,why",
    [
        ("crashes", "no crashes fired"),
        ("restores", "no checkpoint restore exercised"),
        ("recovered_clients", "no post-crash commit observed"),
    ],
)
def test_resilience_vacuity_fails_a_matrix(zeroed, why, capsys):
    reports = [_crash_report(**{zeroed: 0}), _crash_report(seed=202, **{zeroed: 0})]
    assert f"matrix is vacuous: {why}" in resilience.check(reports)
    matrix = [(f"cell {i}", lambda r=r: r) for i, r in enumerate(reports)]
    assert oracle.run(matrix, check=resilience.check) == 1
    assert "FAIL: 2/2 cells clean" in capsys.readouterr().out


def test_resilience_group_liveness_across_seeds():
    stuck = [
        _crash_report(seed=seed, recovered_clients=0, expected_recoveries=1)
        for seed in (201, 202)
    ]
    # recovered elsewhere, so the matrix is not vacuous
    other = _crash_report(scheme="sgt+cache")
    problems = resilience.check(stuck + [other])
    assert len(problems) == 1
    assert problems[0].startswith("inval+cache slot-loss immediate N=3:")
    # one seed of the group recovering is enough
    assert resilience.check([stuck[0], _crash_report(seed=202), other]) == []

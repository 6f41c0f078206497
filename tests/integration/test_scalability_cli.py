"""Smoke/regression coverage for the scalability experiment's CLI
surfaces: the cohort sweep's table/JSON wiring.  The discrete sweep's
serial-vs-parallel byte identity is the parallel oracle's
(``tests/integration/test_parallel_oracle.py``)."""

import json

from repro.experiments import __main__ as experiments_cli
from repro.experiments import scalability
from repro.experiments.runner import ExperimentProfile


def test_run_cohorts_tiny_smoke():
    profile = ExperimentProfile(
        num_cycles=10, warmup_cycles=2, num_clients=4, seeds=(11,)
    )
    rows = scalability.run_cohorts(
        profile,
        schemes=("inval+cache",),
        client_sweep=(3, 6),
        num_cycles=6,
        cohort_size=4,
    )
    assert [row["clients"] for row in rows] == [3, 6]
    for row in rows:
        assert row["scheme"] == "inval+cache"
        assert row["seed"] == 11
        assert row["num_cycles"] == 6
        assert row["total_attempts"] > 0
        assert 0.0 <= row["abort_rate"] <= 1.0
        assert row["steps"] > 0
    table = scalability.render_cohort_rows(rows)
    assert "inval+cache" in table and "clients/s" in table


def test_cohort_bench_payload_shape():
    rows = [
        {"clients": 10, "scheme": "inval+cache"},
        {"clients": 1000, "scheme": "sgt+cache"},
    ]
    payload = scalability.cohort_bench_payload(rows, cohort_size=64)
    assert payload["bench"] == "cohort-scalability"
    assert payload["max_clients"] == 1000
    assert payload["cohort_size"] == 64
    assert payload["rows"] == rows


def test_scalability_main_cohorts_writes_json(tmp_path, capsys, monkeypatch):
    out = tmp_path / "BENCH_cohort.json"
    # Shrink the sweep so the CLI path stays sub-second.
    monkeypatch.setattr(scalability, "COHORT_CLIENT_SWEEP", (2, 5))
    monkeypatch.setattr(scalability, "COHORT_SCHEMES", ("inval",))
    profile = ExperimentProfile(
        num_cycles=10, warmup_cycles=2, num_clients=4, seeds=(7,)
    )
    scalability.main(profile, cohorts=True, cohort_out=str(out))
    captured = capsys.readouterr().out
    assert "cohort mode" in captured
    assert f"wrote {out}" in captured
    payload = json.loads(out.read_text())
    assert payload["bench"] == "cohort-scalability"
    assert [row["clients"] for row in payload["rows"]] == [2, 5]


def test_experiments_cli_rejects_cohorts_outside_scalability(capsys):
    assert experiments_cli.main(["fig6", "--cohorts"]) == 2
    assert "--cohorts only applies" in capsys.readouterr().out
    assert experiments_cli.main(["--cohorts"]) == 2


def test_experiments_cli_cohorts_name_their_cores_and_refuse_jobs(
    capsys, monkeypatch
):
    """The cohort sweep fans out over the usable cores, not ``--jobs``
    workers: the header says so, and a ``--jobs`` other than the default
    is refused before anything runs."""
    ran = []
    monkeypatch.setattr(experiments_cli, "usable_cores", lambda: 3)
    monkeypatch.setattr(
        scalability, "main", lambda profile, **flags: ran.append(flags)
    )
    for jobs in ("0", "2"):
        assert experiments_cli.main(["scalability", "--cohorts", "--jobs", jobs]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "taskset" in out
    assert ran == []
    assert experiments_cli.main(["scalability", "--cohorts", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "(cohort runs over 3 usable core(s))" in out and "jobs=" not in out
    assert [flags["cohorts"] for flags in ran] == [True]

"""Argv re-forwarding audit (latent-bug regression).

``repro experiments`` is a thin shell: it parses a user-facing flag set
and re-forwards it as argv to the underlying tool.  The bug class this
pins: a flag *accepted* by the shell parser but silently dropped on the
way through, so the behaviour it names could never fire through the
umbrella CLI.

Every test sets each forwardable flag to a non-default value, captures
the argv handed to the target, and (where the target exposes its
parser) re-parses it with the *real* downstream parser, so a renamed
or retyped downstream flag also fails here.
"""

from repro.cli import main


def _capture(monkeypatch, module, attr="main"):
    calls = []

    def fake(argv=None):
        calls.append(list(argv))
        return 0

    monkeypatch.setattr(module, attr, fake)
    return calls


def test_experiments_forwards_every_flag(monkeypatch):
    import repro.experiments.__main__ as experiments

    calls = _capture(monkeypatch, experiments)
    code = main(
        [
            "experiments", "fig5", "fig6",
            "--quick",
            "--jobs", "3",
            "--cache", "cachedir",
            "--progress",
            "--preset", "stormy",
            "--cohorts",
            "--cohort-out", "cohort.json",
            "--shard-out", "shard.json",
        ]
    )
    assert code == 0
    (argv,) = calls
    # The captured argv must survive the *real* downstream parser with
    # every value intact.
    parsed = experiments.build_parser().parse_args(argv)
    assert parsed.names == ["fig5", "fig6"]
    assert parsed.quick is True
    assert parsed.jobs == 3
    assert parsed.cache == "cachedir"
    assert parsed.progress is True
    assert parsed.preset == "stormy"
    assert parsed.cohorts is True
    assert parsed.cohort_out == "cohort.json"
    assert parsed.shard_out == "shard.json"


def test_experiments_check_forwards_to_the_parallel_oracle(monkeypatch):
    from repro.experiments import parallel

    calls = _capture(monkeypatch, parallel)
    code = main(
        [
            "experiments", "fig5",
            "--check",
            "--jobs", "4",
            "--artifacts", "outdir",
        ]
    )
    assert code == 0
    assert calls == [["check", "--jobs", "4", "--artifacts", "outdir", "fig5"]]


def test_experiments_check_serial_request_still_runs_parallel_oracle(monkeypatch):
    """--check needs >= 2 workers to mean anything; the shell floors it."""
    from repro.experiments import parallel

    calls = _capture(monkeypatch, parallel)
    assert main(["experiments", "--check"]) == 0
    assert calls == [["check", "--jobs", "2"]]

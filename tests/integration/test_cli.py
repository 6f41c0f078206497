"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


RUN_SMALL = [
    "run",
    "--cycles", "25",
    "--warmup", "3",
    "--clients", "2",
    "--broadcast-size", "100",
    "--update-range", "50",
    "--updates", "8",
    "--offset", "20",
    "--read-range", "40",
    "--cache-size", "20",
    "--ops", "4",
    "--think-time", "0.5",
]


def test_schemes_command_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "sgt+cache" in out
    assert "multiversion" in out


def test_sizes_command_prints_table(capsys):
    assert main(["sizes", "--updates", "50", "--span", "3"]) == 0
    out = capsys.readouterr().out
    assert "invalidation_only" in out
    assert "size increase" in out


def test_run_command_prints_summary(capsys):
    code = main(RUN_SMALL + ["--scheme", "inval+cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "abort rate" in out
    assert "invalidation-only+cache" in out


def test_run_with_verify_reports_clean_oracle(capsys):
    code = main(RUN_SMALL + ["--scheme", "versioned-cache", "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out


def test_run_with_interleaved_server(capsys):
    code = main(RUN_SMALL + ["--scheme", "sgt", "--interleaved-server", "--verify"])
    assert code == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_run_with_subcycle_reports(capsys):
    code = main(RUN_SMALL + ["--reports-per-cycle", "3"])
    assert code == 0


@pytest.mark.parametrize(
    "engine",
    [[], ["--shards", "2"], ["--cohorts"]],
    ids=["single", "sharded", "cohorts"],
)
def test_bad_parameter_is_one_line_and_exit_2(engine, capsys):
    """A ValueError out of parameter building or construction is
    reported the same way whichever engine was asked for."""
    assert main(["run", "--cycles", "5"] + engine) == 2
    captured = capsys.readouterr()
    assert captured.out == "run: num_cycles must exceed warmup_cycles\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--reports-per-cycle", "0"], "run: "),
        (["--cohorts", "--reports-per-cycle", "2"], "run: cohort mode requires"),
        (["--shards", "2", "--reports-per-cycle", "2"], "run: sub-cycle reports"),
        (
            ["--scheme", "multiversion", "--retention", "-1"],
            "run: retention must be non-negative",
        ),
    ],
)
def test_construction_errors_share_the_handler(argv, message, capsys):
    assert main(RUN_SMALL + argv) == 2
    out = capsys.readouterr().out
    assert out.startswith(message)
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value, needs",
    [
        ("--cohort-size", "7", "--cohorts"),
        ("--partitioner", "range", "--shards"),
        ("--shard-consistency", "epoch", "--shards"),
        ("--cross-shard-fraction", "0.3", "--shards"),
        ("--severity", "3.0", "--preset"),
    ],
)
def test_a_flag_without_the_engine_that_reads_it_is_refused(
    flag, value, needs, capsys
):
    assert main(RUN_SMALL + [flag, value]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert flag in line and needs in line


def test_preset_refuses_an_explicit_fault_knob(capsys):
    assert main(RUN_SMALL + ["--preset", "deep-fade", "--slot-loss", "0.5"]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert "--preset" in line and "--slot-loss" in line


@pytest.mark.parametrize(
    "argv",
    [
        ["--shards", "2", "--crash-rate", "0.1"],
        ["--scheme", "multiversion", "--retention", "-1"],
    ],
    ids=["sharded", "single"],
)
def test_a_run_the_engine_refuses_writes_no_trace(argv, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(RUN_SMALL + argv + ["--trace", str(trace)]) == 2
    assert capsys.readouterr().out.startswith("run: ")
    assert list(tmp_path.iterdir()) == []


def test_deep_retention_output_equals_the_reference(capsys, on_dict_store):
    """``--retention 300`` runs on the one item store and prints the
    same table as a run forced onto the dict reference store."""
    argv = RUN_SMALL + ["--scheme", "multiversion", "--retention", "300"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "multiversion" in out
    with on_dict_store() as built:
        assert main(argv) == 0
    assert built
    assert capsys.readouterr().out == out


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "nonsense"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])

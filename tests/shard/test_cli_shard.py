"""CLI surface of the sharded server: ``repro run --shards`` and the
per-shard airtime view, plus the pointed rejections for flag
combinations the sharded runtime does not support."""

import pytest

from repro.cli import main

RUN_SHARDED = [
    "run",
    "--cycles", "15",
    "--warmup", "3",
    "--clients", "2",
    "--broadcast-size", "100",
    "--update-range", "50",
    "--updates", "8",
    "--offset", "20",
    "--read-range", "80",
    "--cache-size", "30",
    "--ops", "4",
    "--think-time", "0.5",
    "--scheme", "inval+cache",
]


class TestRunSharded:
    def test_run_and_verify(self, capsys):
        code = main(
            RUN_SHARDED
            + ["--shards", "3", "--cross-shard-fraction", "0.4", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "cross-shard commits" in out
        assert "correctness oracle: 0 violation(s)" in out

    def test_epoch_mode_row(self, capsys):
        code = main(
            RUN_SHARDED + ["--shards", "2", "--shard-consistency", "epoch"]
        )
        assert code == 0
        assert "epoch aborts" in capsys.readouterr().out

    def test_k1_verifies_against_single_channel_oracle(self, capsys):
        assert main(RUN_SHARDED + ["--shards", "1", "--verify"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out


class TestRejections:
    def test_cohorts_rejects_shards(self, capsys):
        assert main(RUN_SHARDED + ["--cohorts", "--shards", "2"]) == 2
        out = capsys.readouterr().out
        assert "--cohorts is incompatible with --shards" in out

    def test_cohorts_rejects_cross_shard_fraction(self, capsys):
        assert (
            main(RUN_SHARDED + ["--cohorts", "--cross-shard-fraction", "0.5"])
            == 2
        )
        assert "--cross-shard-fraction" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [["--trace", "run.jsonl"], ["--verify"], ["--interleaved-server"]],
        ids=["trace", "verify", "interleaved-server"],
    )
    def test_cohorts_rejects_per_event_tooling(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(RUN_SHARDED + ["--cohorts"] + flag) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert f"--cohorts is incompatible with {flag[0]}" in line
        # Refused before anything is built: no trace, no manifest.
        assert list(tmp_path.iterdir()) == []

    def test_shards_rejects_interleaved_server(self, capsys):
        assert (
            main(RUN_SHARDED + ["--shards", "2", "--interleaved-server"]) == 2
        )
        assert "--interleaved-server" in capsys.readouterr().out

    def test_shards_rejects_resilience(self, capsys):
        assert main(RUN_SHARDED + ["--shards", "2", "--crash-rate", "0.1"]) == 2
        assert "resilience" in capsys.readouterr().out

    def test_shards_rejects_bad_fraction(self, capsys):
        assert (
            main(RUN_SHARDED + ["--shards", "2", "--cross-shard-fraction", "1.5"])
            == 2
        )
        assert capsys.readouterr().out.startswith("run: ")


class TestShardAirtime:
    @pytest.fixture(scope="class")
    def sharded_trace(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("shard_trace") / "run.jsonl"
        code = main(
            RUN_SHARDED
            + ["--shards", "3", "--trace", str(trace), "--trace-level", "cycle"]
        )
        assert code == 0
        return trace

    def test_airtime_prints_per_shard_table(self, sharded_trace, capsys):
        assert main(["trace", "airtime", str(sharded_trace)]) == 0
        out = capsys.readouterr().out
        assert "per-shard airtime (3 channels" in out
        assert "superframe total" in out

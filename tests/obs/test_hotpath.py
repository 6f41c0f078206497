"""Smoke tests for the hot-path micro-benchmark suite (quick mode)."""

import json

from repro.obs import hotpath


def test_hotpath_quick_payload_and_gate(tmp_path, capsys):
    out = tmp_path / "BENCH_hotpath.json"
    code = hotpath.main(
        ["--quick", "--repeats", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bench"] == "repro.obs.hotpath"
    assert payload["quick"] is True

    suites = payload["suites"]
    assert suites["dispatch"]["events_per_sec"] > 0
    assert suites["dispatch"]["events"] > 0
    for variant in ("flat", "overflow", "clustered"):
        assert suites["programs"][variant]["builds_per_sec"] > 0
    # The builder supports incremental construction, so the suite also
    # measures the full-rebuild control for the non-clustered layouts.
    assert suites["programs"]["flat_full_rebuild"]["builds_per_sec"] > 0
    for count in hotpath.CLIENT_COUNTS:
        stats = suites["clients"][str(count)]
        assert stats["events_per_sec"] > 0
        assert stats["cycles_per_sec"] > 0
    assert suites["profile"]
    assert all("cumtime" in row for row in suites["profile"])
    assert "events/s" in capsys.readouterr().out

    # A second run passes the regression gate against the first.  Two
    # separately timed runs on a busy box can differ by more than the
    # gate's 20 %, so the baseline is the first run's payload with every
    # gated rate at a tenth: the plumbing is what is under test here,
    # and only a tenfold slowdown between the two runs could trip it.
    for lane, rate in (
        (suites["dispatch"], "events_per_sec"),
        (suites["clients"]["10"], "events_per_sec"),
        (suites["codec"]["flat"], "encodes_per_sec"),
        (suites["codec"]["overflow"], "encodes_per_sec"),
    ):
        lane[rate] /= 10
    slowed = tmp_path / "slowed.json"
    slowed.write_text(json.dumps(payload))
    assert hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(tmp_path / "b.json"),
            "--against", str(slowed),
        ]
    ) == 0


def test_hotpath_gate_trips_on_impossible_baseline(tmp_path):
    out = tmp_path / "BENCH_hotpath.json"
    assert hotpath.main(["--quick", "--repeats", "1", "--out", str(out)]) == 0
    baseline = json.loads(out.read_text())
    # An absurdly fast baseline makes any run a >20% regression.
    baseline["suites"]["dispatch"]["events_per_sec"] *= 1000
    fast = tmp_path / "impossible.json"
    fast.write_text(json.dumps(baseline))
    code = hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(tmp_path / "b.json"),
            "--against", str(fast),
        ]
    )
    assert code == 1


def test_hotpath_before_attaches_speedups(tmp_path):
    before = tmp_path / "before.json"
    assert hotpath.main(["--quick", "--repeats", "1", "--out", str(before)]) == 0
    out = tmp_path / "after.json"
    assert hotpath.main(
        [
            "--quick", "--repeats", "1",
            "--out", str(out),
            "--before", str(before),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert "before" in payload
    speedups = payload["speedup_vs_before"]
    assert speedups["dispatch_events_per_sec"] > 0
    assert speedups["programs_flat_builds_per_sec"] > 0

"""CSV provenance: comment rows, sibling manifests, comment-safe parsing."""

import json
from typing import Dict, List

from repro.config import DEFAULTS
from repro.experiments.render import sweep_to_csv
from repro.experiments.runner import (
    ExperimentProfile,
    PointResult,
    SweepResult,
    write_sweep_csv,
)


def parse_csv(text: str):
    """Parse CSV text written by :func:`sweep_to_csv`.

    Returns ``(provenance, headers, rows)``: the leading ``# key: value``
    comments as a dict, the header cells, and the data rows as lists of
    strings; provenance rows never parse as data.
    """
    provenance: Dict[str, str] = {}
    headers: List[str] = []
    rows: List[List[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            key, sep, value = body.partition(":")
            if sep:
                provenance[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if not headers:
            headers = cells
        else:
            rows.append(cells)
    return provenance, headers, rows


def _sweep() -> SweepResult:
    sweep = SweepResult(
        name="unit sweep", x_label="x", xs=[1.0, 2.0], y_label="y"
    )
    for x, y in ((1.0, 0.25), (2.0, 0.5)):
        point = PointResult(scheme="inval", committed=3, attempts=4)
        sweep.add_point("inval", point, y)
    return sweep


def test_sweep_to_csv_provenance_rows_round_trip():
    text = sweep_to_csv(_sweep(), provenance={"manifest": "m.json", "seeds": "1 2"})
    assert text.startswith("# manifest: m.json\n# seeds: 1 2\n")
    provenance, headers, rows = parse_csv(text)
    assert provenance == {"manifest": "m.json", "seeds": "1 2"}
    assert headers == ["x", "inval"]
    assert rows == [["1.0", "0.25"], ["2.0", "0.5"]]


def test_parse_csv_without_provenance_is_backward_compatible():
    provenance, headers, rows = parse_csv(sweep_to_csv(_sweep()))
    assert provenance == {}
    assert headers == ["x", "inval"]
    assert len(rows) == 2


def test_write_sweep_csv_emits_manifest_sibling(tmp_path):
    profile = ExperimentProfile(
        num_cycles=10, warmup_cycles=2, num_clients=2, seeds=(3, 7)
    )
    path = write_sweep_csv(
        _sweep(),
        str(tmp_path / "results" / "unit.csv"),
        params=DEFAULTS,
        profile=profile,
        extra={"axis": "loss"},
    )
    provenance, headers, rows = parse_csv(path.read_text(encoding="utf-8"))
    assert provenance["manifest"] == "unit.manifest.json"
    assert provenance["seeds"] == "3 7"
    assert headers == ["x", "inval"]

    manifest = json.loads(path.with_suffix(".manifest.json").read_text())
    assert manifest["seeds"] == [3, 7]
    assert manifest["extra"]["experiment"] == "unit sweep"
    assert manifest["extra"]["num_cycles"] == 10
    assert manifest["extra"]["axis"] == "loss"
    assert manifest["params"]["server"]["broadcast_size"] == (
        DEFAULTS.server.broadcast_size
    )

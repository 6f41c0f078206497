"""Unit tests for run manifests."""

import json

from repro.config import ModelParameters
from repro.obs.manifest import (
    RunManifest,
    git_revision,
    package_versions,
    write_manifest,
)


def test_git_revision_in_checkout_is_short_hex():
    rev = git_revision()
    # In this repo it must resolve; anywhere else "unknown" is the
    # documented fallback.
    assert rev == "unknown" or all(c in "0123456789abcdef" for c in rev)


def test_package_versions_include_python_and_repro():
    versions = package_versions()
    assert "python" in versions
    assert "repro" in versions


def test_collect_records_params_and_seed():
    params = ModelParameters().with_sim(seed=99).with_faults(slot_loss=0.1)
    manifest = RunManifest.collect(params=params, scheme="inval")
    assert manifest.seed == 99
    assert manifest.scheme == "inval"
    assert manifest.params["sim"]["seed"] == 99
    assert manifest.params["faults"]["slot_loss"] == 0.1
    assert manifest.version == manifest.packages["repro"]


def test_write_and_load_round_trip(tmp_path):
    params = ModelParameters().with_sim(seed=7)
    path = write_manifest(
        str(tmp_path / "runs" / "m.json"),
        params=params,
        seeds=(7, 11),
        extra={"experiment": "unit-test"},
    )
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["seed"] == 7
    assert data["seeds"] == [7, 11]
    assert data["extra"]["experiment"] == "unit-test"
    assert data["params"]["sim"]["seed"] == 7
    assert "git_rev" in data and "platform" in data


def test_collect_without_params_is_empty_but_valid():
    manifest = RunManifest.collect()
    assert manifest.params == {}
    assert manifest.seed is None
    assert "faults" not in manifest.params

"""Run manifests: everything needed to re-run or attribute a result.

A manifest captures the complete provenance of one simulation or
experiment run: the full parameter set (including fault knobs), the
seed(s), the repro package version, the git revision the code ran at,
interpreter/platform identifiers, and the versions of the optional
test packages when present.  Experiment CSVs reference their
manifest in a leading comment row (see
:func:`repro.experiments.runner.write_sweep_csv`), so a results file
can always be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.config import ModelParameters

#: Optional packages whose versions are worth recording when installed.
_INTERESTING_PACKAGES = ("pytest", "hypothesis", "networkx")


def git_revision(short: bool = True, cwd: Optional[str] = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def package_versions() -> Dict[str, str]:
    """Versions of the interpreter, repro, and optional dependencies."""
    from repro import __version__

    versions = {
        "python": platform.python_version(),
        "repro": __version__,
    }
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py3.10+ always has it
        return versions
    for name in _INTERESTING_PACKAGES:
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            continue
    return versions


@dataclass
class RunManifest:
    """The provenance record of one run."""

    #: repro package version (also embedded in trace headers).
    version: str
    git_rev: str
    platform: str
    packages: Dict[str, str]
    #: Full parameter tree as nested plain dicts (JSON-ready).
    params: Dict[str, Any]
    seed: Optional[int] = None
    scheme: Optional[str] = None
    #: Seeds of a multi-seed experiment (runner provenance).
    seeds: Sequence[int] = ()
    #: Free-form caller context (experiment name, sweep axis, ...).
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        params: Optional[ModelParameters] = None,
        seed: Optional[int] = None,
        scheme: Optional[str] = None,
        seeds: Sequence[int] = (),
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Build a manifest from the current environment and ``params``."""
        from repro import __version__

        return cls(
            version=__version__,
            git_rev=git_revision(),
            platform=f"{platform.system()}-{platform.machine()}-{sys.implementation.name}",
            packages=package_versions(),
            params=dataclasses.asdict(params) if params is not None else {},
            seed=seed if seed is not None else _seed_of(params),
            scheme=scheme,
            seeds=tuple(seeds),
            extra=dict(extra or {}),
        )

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        return data

    def write(self, path: str) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return target


def _seed_of(params: Optional[ModelParameters]) -> Optional[int]:
    return params.sim.seed if params is not None else None


def write_manifest(
    path: str,
    params: Optional[ModelParameters] = None,
    seed: Optional[int] = None,
    scheme: Optional[str] = None,
    seeds: Sequence[int] = (),
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Collect-and-write convenience used by the CLI and the runner."""
    manifest = RunManifest.collect(
        params=params, seed=seed, scheme=scheme, seeds=seeds, extra=extra
    )
    return manifest.write(path)

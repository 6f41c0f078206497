"""repro.obs -- observability for the broadcast-push simulator.

Two pillars, both optional and near-zero-cost when off:

* :mod:`repro.obs.trace` -- a structured event/span tracer with a
  bounded ring-buffer sink and a JSONL file sink.  Emission sites are
  gated on precomputed level flags (see :func:`repro.obs.trace.gate`),
  so a simulation constructed without a tracer pays one ``is None``
  branch per potential event at most (checked exactly by
  ``tests/obs/test_disabled_tracer.py``).
* :mod:`repro.obs.manifest` -- run-manifest capture (config, seed, git
  revision, package versions, fault knobs) for experiment provenance.

Trace files are dissected by :mod:`repro.obs.analyze` (per-query
timelines, abort-cause breakdowns, per-cycle airtime occupancy), which
backs the ``repro trace`` CLI.
"""

from repro.obs.analyze import TraceAnalyzer
from repro.obs.manifest import RunManifest, git_revision, write_manifest
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    RingBufferSink,
    TraceLevel,
    Tracer,
    gate,
)

__all__ = [
    "JsonlSink",
    "NULL_TRACER",
    "RingBufferSink",
    "RunManifest",
    "TraceAnalyzer",
    "TraceLevel",
    "Tracer",
    "gate",
    "git_revision",
    "write_manifest",
]

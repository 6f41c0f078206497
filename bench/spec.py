"""Names, units, directions and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is the single source for the
workload names, the gated end-to-end metrics and the per-layer names.
The six end-to-end metrics below are part of the benchmark too, but
each is either undefined on some workload, zero when all is well, an
exact count that differs from seed to seed, or (the p95) set by the
box's neighbours more than by the program, so the driver cannot gate
them: it lists them with the per-layer metrics (no bound), and
``--agree`` holds them to the bounds given here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    #: None: reported, never judged.
    bound: Optional[float]
    #: How ``bound`` reads: a share of the first median ("rel"), an
    #: absolute difference ("abs"), or no difference at all ("exact").
    kind: str = "rel"


PER_LAYER: Dict[str, str] = {
    m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
}

#: What the driver gates: reported by every workload on ``--trace 0``.
GATED: List[str] = [m["name"] for m in BENCHMARK["end_to_end"]]

#: The end-to-end metrics the driver cannot gate, with the bounds
#: ``--agree`` holds them to.
UNGATED = {
    "fresh_ms_p95": (None, "rel"),
    "queries_per_s": (0.25, "rel"),
    "wire_bytes_per_cycle": (0.0, "exact"),
    "late_share": (0.02, "abs"),
    "fail_share": (0.0, "exact"),
    "abort_share": (0.0, "exact"),
}

END_TO_END: Dict[str, Metric] = {
    m["name"]: Metric(m["unit"], m["better"], m["bound"])
    for m in BENCHMARK["end_to_end"]
}
END_TO_END.update(
    (m["name"], Metric(m["unit"], m["better"], *UNGATED[m["name"]]))
    for m in BENCHMARK["per_layer"]
    if m["name"] in UNGATED
)

WORKLOAD_NAMES: List[str] = [w["name"] for w in BENCHMARK["workloads"]]
RUN_SECONDS: int = BENCHMARK["run_seconds"]

"""Trace dissection: timelines, abort causes, airtime occupancy.

The analyzer consumes the flat event dicts produced by
:mod:`repro.obs.trace` (from a JSONL file or straight from a
:class:`~repro.obs.trace.RingBufferSink`'s ``events``) and reconstructs the views the
paper's aggregate numbers cannot give:

* per-query **timelines** -- every event of one attempt in order, so a
  single abort can be traced to the cycle and cause that doomed it;
* **abort breakdowns** -- counts by reason and by root cause event,
  exactly matching the ``abort.*`` counters of
  :class:`~repro.stats.metrics.MetricsRegistry` when restricted to
  measured attempts (the trace<->metrics consistency suite pins this);
* **airtime occupancy** -- per-cycle control/index/data/overflow slot
  shares, cross-checkable against the analytic sizing model (Fig 7).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import (
    EV_CYCLE_START,
    EV_HEADER,
    EV_QUERY_ABORT,
    EV_QUERY_ACCEPT,
    EV_QUERY_BEGIN,
    EV_QUERY_READ,
    EV_SHARD_CYCLE_START,
    read_jsonl,
)

#: Event kinds that belong to one query attempt (keyed by ``txn``).
_QUERY_KINDS = frozenset(
    (EV_QUERY_BEGIN, EV_QUERY_READ, EV_QUERY_ACCEPT, EV_QUERY_ABORT)
)


class TraceAnalyzer:
    """Index a list of trace events for the summary views."""

    def __init__(self, events: Iterable[Dict[str, Any]]) -> None:
        self.events: List[Dict[str, Any]] = list(events)
        self.header: Optional[Dict[str, Any]] = next(
            (e for e in self.events if e.get("kind") == EV_HEADER), None
        )

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceAnalyzer":
        return cls(read_jsonl(path))

    # -- summary -----------------------------------------------------------

    def kind_counts(self) -> Dict[str, int]:
        return dict(Counter(e.get("kind", "?") for e in self.events))

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for ``repro trace summarize``."""
        kinds = self.kind_counts()
        times = [e["t"] for e in self.events if "t" in e]
        accepts = [e for e in self.events if e.get("kind") == EV_QUERY_ACCEPT]
        aborts = [e for e in self.events if e.get("kind") == EV_QUERY_ABORT]
        cycles = [
            e.get("cycle") for e in self.events if e.get("kind") == EV_CYCLE_START
        ]
        return {
            "events": len(self.events),
            "kinds": kinds,
            "t_min": min(times) if times else 0.0,
            "t_max": max(times) if times else 0.0,
            "cycles": len(cycles),
            "last_cycle": max(cycles) if cycles else None,
            "accepted": len(accepts),
            "aborted": len(aborts),
            "accepted_measured": sum(1 for e in accepts if e.get("measured")),
            "aborted_measured": sum(1 for e in aborts if e.get("measured")),
            "header": self.header,
        }

    # -- timelines ---------------------------------------------------------

    def timelines(
        self,
        txn: Optional[str] = None,
        client: Optional[int] = None,
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Per-attempt event lists, in emission order.

        Filter by exact transaction id and/or by client.  Keys are
        transaction ids (``c<client>.q<query>.a<attempt>``).
        """
        lines: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        for event in self.events:
            if event.get("kind") not in _QUERY_KINDS:
                continue
            tid = event.get("txn")
            if tid is None:
                continue
            if txn is not None and tid != txn:
                continue
            if client is not None and event.get("client") != client:
                continue
            lines[tid].append(event)
        return dict(lines)

    # -- aborts ------------------------------------------------------------

    def abort_breakdown(self, measured_only: bool = True) -> Dict[str, int]:
        """Abort counts by reason; with ``measured_only`` this equals the
        registry's ``abort.<reason>`` counters exactly."""
        counts: Counter = Counter()
        for event in self.events:
            if event.get("kind") != EV_QUERY_ABORT:
                continue
            if measured_only and not event.get("measured"):
                continue
            counts[event.get("reason", "unknown")] += 1
        return dict(counts)

    def abort_causes(self, measured_only: bool = False) -> Dict[str, int]:
        """Histogram of *root* causes (first cause-chain entry)."""
        counts: Counter = Counter()
        for event in self.events:
            if event.get("kind") != EV_QUERY_ABORT:
                continue
            if measured_only and not event.get("measured"):
                continue
            chain = event.get("cause") or []
            root = chain[0].get("event", "unknown") if chain else "unknown"
            counts[root] += 1
        return dict(counts)

    def aborts(self, measured_only: bool = True) -> List[Dict[str, Any]]:
        """Every abort event (optionally measured attempts only)."""
        return [
            e
            for e in self.events
            if e.get("kind") == EV_QUERY_ABORT
            and (not measured_only or e.get("measured"))
        ]

    # -- airtime -----------------------------------------------------------

    def airtime(self) -> Dict[int, Dict[str, int]]:
        """Per-cycle slot occupancy from the ``cycle.start`` events."""
        per_cycle: Dict[int, Dict[str, int]] = {}
        for event in self.events:
            if event.get("kind") != EV_CYCLE_START:
                continue
            per_cycle[event["cycle"]] = {
                "control": event.get("control_slots", 0),
                "index": event.get("index_slots", 0),
                "data": event.get("data_slots", 0),
                "overflow": event.get("overflow_slots", 0),
                "total": event.get("slots", 0),
            }
        return per_cycle

    def airtime_totals(self) -> Dict[str, float]:
        """Aggregate occupancy: total slots per segment plus fractions."""
        per_cycle = self.airtime()
        totals = {"control": 0, "index": 0, "data": 0, "overflow": 0, "total": 0}
        for row in per_cycle.values():
            for key in totals:
                totals[key] += row[key]
        out: Dict[str, float] = dict(totals)
        # Fractions are shares of *transmitted* slots.  Single-channel
        # traces have aired == total; sharded traces do not (``slots``
        # on cycle.start is the superframe -- the max shard program --
        # while the segment keys sum over every channel).
        aired = sum(
            totals[key] for key in ("control", "index", "data", "overflow")
        )
        out["aired"] = aired
        grand = aired or totals["total"]
        for key in ("control", "index", "data", "overflow"):
            out[f"{key}_fraction"] = totals[key] / grand if grand else 0.0
        out["cycles"] = len(per_cycle)
        return out

    def shard_airtime(self) -> Dict[int, Dict[str, int]]:
        """Per-shard segment totals from ``shard.cycle.start`` events.

        Empty for single-channel traces -- those events exist only when
        the sharded server (:mod:`repro.shard`) runs with K > 1.  Unlike
        :meth:`airtime`, the ``total`` here is the *shard's own* program
        length; the superframe the clients experience is the max, not
        the sum, of these per cycle (``cycle.start`` carries it).
        """
        per_shard: Dict[int, Dict[str, int]] = {}
        for event in self.events:
            if event.get("kind") != EV_SHARD_CYCLE_START:
                continue
            row = per_shard.setdefault(
                event["shard"],
                {
                    "control": 0,
                    "index": 0,
                    "data": 0,
                    "overflow": 0,
                    "total": 0,
                    "cycles": 0,
                },
            )
            row["control"] += event.get("control_slots", 0)
            row["index"] += event.get("index_slots", 0)
            row["data"] += event.get("data_slots", 0)
            row["overflow"] += event.get("overflow_slots", 0)
            row["total"] += event.get("slots", 0)
            row["cycles"] += 1
        return per_shard

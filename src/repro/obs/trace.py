"""Structured event tracing for the simulator.

Every trace event is one flat dict: ``t`` (simulation time), ``kind``
(one of the ``EV_*`` constants below), plus kind-specific fields.  The
flat shape keeps the JSONL sink line-oriented and lets the analyzer
group by any field without schema knowledge.

Overhead contract
-----------------
Tracing is *opt-in per simulation*.  Components never call
``tracer.emit`` directly on a hot path; they hold a per-level reference
computed once at construction time via :func:`gate`::

    self._trace_q = gate(tracer, "queries")   # None unless QUERY level on
    ...
    if self._trace_q is not None:
        self._trace_q.emit(EV_QUERY_BEGIN, client=..., txn=...)

so a simulation with no tracer -- or a tracer at a lower level -- pays
exactly one ``is None`` test per potential event.  That is a structural
property and is tested as one (``tests/obs/test_disabled_tracer.py``):
under a tracer at ``OFF`` with a sink attached, every gated reference
in the runtime is ``None``, the sink stays empty and the metrics equal
the tracer-less run's exactly.  :meth:`Tracer.emit` itself never looks
at the level, so an emit that bypasses :func:`gate` fails that test.

Levels
------
``CYCLE``  -- O(cycles): server-side cycle/program events.
``QUERY``  -- O(attempts): query lifecycle, aborts with cause chains,
              per-cycle fault fates, resynchronizations.
``READ``   -- O(reads): individual reads, control decodes, slot losses.
``ENGINE`` -- O(events): one record per simulation-engine dispatch.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from typing import IO, Any, Callable, Deque, Dict, List, Optional, Sequence

# -- event kinds -----------------------------------------------------------

#: First record of every trace: version, scheme, seed, level, manifest.
EV_HEADER = "trace.header"

# CYCLE level (server side, O(cycles)).
EV_CYCLE_START = "cycle.start"
EV_CYCLE_END = "cycle.end"
EV_PROGRAM_BUILD = "program.build"
#: Per-shard cycle start (sharded mode only, one per shard per cycle):
#: carries ``shard`` plus the shard program's slot breakdown, while the
#: plain ``cycle.start`` carries the superframe totals.
EV_SHARD_CYCLE_START = "shard.cycle.start"

# QUERY level (client side, O(attempts)).
EV_QUERY_BEGIN = "query.begin"
EV_QUERY_ACCEPT = "query.accept"
EV_QUERY_ABORT = "query.abort"
EV_CLIENT_RESYNC = "client.resync"
EV_CACHE_FLUSH = "cache.flush"
EV_FAULT_REPORT_MISSED = "fault.report_missed"
EV_FAULT_REPORT_DELAYED = "fault.report_delayed"
EV_FAULT_TRUNCATED = "fault.truncated"

# QUERY level: resilience layer (see repro.resilience).
EV_RESILIENCE_RETRY = "resilience.retry"
EV_RESILIENCE_DEADLINE = "resilience.deadline"
EV_RESILIENCE_WATCHDOG = "resilience.watchdog"
EV_RESILIENCE_CRASH = "resilience.crash"
EV_RESILIENCE_RESTART = "resilience.restart"
EV_RESILIENCE_CHECKPOINT = "resilience.checkpoint"
EV_RESILIENCE_RESTORE = "resilience.restore"
EV_RESILIENCE_DEGRADE = "resilience.degrade"

# READ level (client side, O(reads)).
EV_QUERY_READ = "query.read"
EV_CONTROL_DECODE = "control.decode"
EV_FAULT_READ_LOST = "fault.read_lost"

# ENGINE level (O(simulation events)).
EV_ENGINE_STEP = "engine.step"


class TraceLevel(enum.IntEnum):
    """How deep the tracer records; each level includes the ones above."""

    OFF = 0
    CYCLE = 1
    QUERY = 2
    READ = 3
    ENGINE = 4

    @classmethod
    def parse(cls, name: str) -> "TraceLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            known = ", ".join(level.name.lower() for level in cls)
            raise ValueError(f"Unknown trace level {name!r}; known: {known}")


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0

    def write(self, event: Dict[str, Any]) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def close(self) -> None:
        """Nothing to release; present for sink-interface symmetry."""

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """Appends one JSON object per line to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, event: Dict[str, Any]) -> None:
        if self._file is None:
            raise RuntimeError(f"JsonlSink {self.path} is closed")
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class Tracer:
    """Routes events above the configured level to every sink.

    The per-level boolean attributes (``cycles`` .. ``engine``) are
    computed once so call sites -- via :func:`gate` -- can gate on a
    plain ``is None`` check instead of comparing levels per event.
    """

    def __init__(
        self,
        level: TraceLevel = TraceLevel.QUERY,
        sinks: Sequence[object] = (),
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.level = TraceLevel(level)
        self.sinks = list(sinks)
        self._clock = clock
        self.cycles = self.level >= TraceLevel.CYCLE
        self.queries = self.level >= TraceLevel.QUERY
        self.reads = self.level >= TraceLevel.READ
        self.engine = self.level >= TraceLevel.ENGINE

    @property
    def enabled(self) -> bool:
        return self.level > TraceLevel.OFF and bool(self.sinks)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock; events stamp ``t`` from it."""
        self._clock = clock

    def emit(self, kind: str, **fields: Any) -> None:
        event: Dict[str, Any] = {
            "t": self._clock() if self._clock is not None else 0.0,
            "kind": kind,
        }
        event.update(fields)
        for sink in self.sinks:
            sink.write(event)

    def header(self, **fields: Any) -> None:
        """Emit the :data:`EV_HEADER` record (call once, first)."""
        self.emit(EV_HEADER, level=self.level.name.lower(), **fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class _NullTracer(Tracer):
    """Shared always-off tracer; every gate on it yields ``None``."""

    def __init__(self) -> None:
        super().__init__(level=TraceLevel.OFF, sinks=())

    def emit(self, kind: str, **fields: Any) -> None:  # pragma: no cover
        pass


NULL_TRACER = _NullTracer()


def gate(tracer: Optional[Tracer], flag: str) -> Optional[Tracer]:
    """The tracer itself when ``flag`` ('cycles'/'queries'/'reads'/
    'engine') is live on it, else ``None`` -- the one-branch idiom every
    instrumented component uses."""
    if tracer is None or not tracer.enabled or not getattr(tracer, flag):
        return None
    return tracer


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events

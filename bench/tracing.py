"""The traced run: spans around each layer's public callables, from outside.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
replaces callables on the *classes* (several targets use ``__slots__``,
so instances cannot be wrapped) for the length of one traced repetition
and puts the originals back afterwards, which is how one process
alternates traced and untraced repetitions and prices the tracing.

Every wrapped callable here is synchronous and never awaits, so one
stack holds the open spans even under asyncio.  A span's self time is
its duration minus what its child spans cover; self time and call
counts aggregate in memory per (span name, cycle) -- the cycle number
is the span identifier -- and are written out once, at exit.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.cohort.engine as cohort_engine
import repro.core
from repro.cohort.channel import CohortChannel
from repro.cohort.engine import Member
from repro.core.base import Scheme
from repro.live.codec import CycleCodec, FrameCorrupt, FrameStream
from repro.server.broadcast import ProgramBuilder
from repro.server.columnar import ColumnarVersionStore
from repro.server.transactions import TransactionEngine
from repro.sim.engine import Environment

#: Span names are ``layer.part``; a layer's self time is the sum of its parts.
LAYERS = (
    "engine",
    "builder",
    "encode",
    "framing",
    "decode",
    "client_step",
    "scheme",
    "kernel",
    "trace_build",
)

NO_CYCLE = 0


def _first_int(args) -> int:
    return args[1]


def _cycle_attr(args) -> int:
    return args[1].cycle


def _no_cycle(args) -> int:
    return NO_CYCLE


class Tracer:
    """Span stack, per-(name, cycle) cells and boundary counts."""

    def __init__(self) -> None:
        #: Open spans, innermost last; each entry accumulates child time.
        self._stack: List[List[float]] = []
        #: (span name, cycle) -> [calls, self seconds].
        self.cells: Dict[Tuple[str, int], List[float]] = {}
        #: Work counted at the boundaries (frames, bytes, buckets, ...).
        self.counts: Dict[str, float] = {}
        self._installed: List[Tuple[object, str, Callable]] = []
        #: Per-builder previous data buckets, for the clean-bucket share.
        self._previous_buckets: Dict[int, list] = {}
        #: Set while a client_step span is open: the Member methods call
        #: one another, and only the outermost is worth two clock reads.
        self._stepping = False

    # -- wrapping -------------------------------------------------------------

    def _span(
        self,
        name: str,
        fn: Callable,
        cycle_of: Callable,
        tally: Optional[Callable] = None,
    ) -> Callable:
        stack, cells, clock = self._stack, self.cells, perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (name, cycle_of(args))
                cell = cells.get(key)
                if cell is None:
                    cells[key] = [1, elapsed - frame[0]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed - frame[0]
            if tally is not None:
                tally(args, result)
            return result

        return traced

    def _outermost(self, traced: Callable, fn: Callable) -> Callable:
        """Trace only the outermost of a family of mutually nested calls."""

        def guarded(*args, **kwargs):
            if self._stepping:
                return fn(*args, **kwargs)
            self._stepping = True
            try:
                return traced(*args, **kwargs)
            finally:
                self._stepping = False

        return guarded

    def _wrap(self, owner, attr, name, cycle_of, tally=None, outermost=False):
        original = vars(owner)[attr]
        wrapper = self._span(name, original, cycle_of, tally)
        if outermost:
            wrapper = self._outermost(wrapper, original)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- boundary counts ------------------------------------------------------

    def _tally_engine(self, args, outcome) -> None:
        self._add("engine.txns", len(outcome.transactions))
        self._add("engine.updates", len(outcome.updated_items))

    def _tally_build(self, args, program) -> None:
        buckets = program.data_buckets
        previous = self._previous_buckets.get(id(args[0]))
        if previous is not None:
            self._add(
                "builder.clean_buckets",
                sum(1 for old, new in zip(previous, buckets) if old is new),
            )
            self._add("builder.compared_buckets", len(buckets))
        self._previous_buckets[id(args[0])] = buckets

    def _tally_encode(self, args, frames) -> None:
        self._add("encode.frames", len(frames))
        self._add("encode.bytes", sum(map(len, frames)))

    def _tally_feed(self, args, events) -> None:
        self._add("framing.bytes", len(args[1]))
        self._add(
            "framing.corrupt_frames",
            sum(1 for event in events if isinstance(event, FrameCorrupt)),
        )

    def _tally_decode(self, args, result) -> None:
        self._add("decode.bytes", len(args[1].payload))

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        wrap = self._wrap
        wrap(TransactionEngine, "run_cycle", "engine.commit", _first_int,
             self._tally_engine)
        wrap(TransactionEngine, "prune_graph_before", "engine.prune", _no_cycle)
        wrap(ProgramBuilder, "build", "builder.build", _first_int,
             self._tally_build)
        # The version store is filled from inside the engine's commit loop.
        wrap(ColumnarVersionStore, "record_supersedure", "builder.store",
             _no_cycle)
        wrap(ColumnarVersionStore, "evict_expired", "builder.store", _no_cycle)
        wrap(CycleCodec, "encode_cycle", "encode.cycle", _cycle_attr,
             self._tally_encode)
        wrap(FrameStream, "feed", "framing.feed", _no_cycle, self._tally_feed)
        wrap(CycleCodec, "decode_control", "decode.control", _cycle_attr,
             self._tally_decode)
        wrap(CycleCodec, "decode_data_bucket", "decode.data", _cycle_attr,
             self._tally_decode)
        wrap(CycleCodec, "decode_overflow_bucket", "decode.overflow",
             _cycle_attr, self._tally_decode)
        wrap(CycleCodec, "assemble", "decode.assemble", _cycle_attr)
        for attr in ("deliver", "run_until", "advance", "finish"):
            wrap(Member, attr, "client_step.step", _no_cycle, outermost=True)
        wrap(CohortChannel, "install", "client_step.install", _cycle_attr)
        wrap(CohortChannel, "signal_lost", "client_step.install", _first_int)
        for cls in _scheme_classes():
            wrap(cls, "on_cycle_start", "scheme.cycle_start", _cycle_attr)
        wrap(Environment, "run", "kernel.run", _no_cycle)
        wrap(cohort_engine, "build_trace", "trace_build.run", _no_cycle)

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._previous_buckets.clear()

    # -- reading --------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds), summed over cycles."""
        out: Dict[str, Tuple[int, float]] = {}
        for (name, _cycle), (calls, self_s) in self.cells.items():
            had_calls, had_s = out.get(name, (0, 0.0))
            out[name] = (had_calls + calls, had_s + self_s)
        return out

    def dump(self) -> dict:
        """JSON-safe per-(name, cycle) aggregation for the trace file."""
        spans: Dict[str, Dict[str, List[float]]] = {}
        for (name, cycle), (calls, self_s) in sorted(self.cells.items()):
            spans.setdefault(name, {})[str(cycle)] = [calls, self_s]
        return {"spans": spans, "counts": dict(sorted(self.counts.items()))}


def _scheme_classes() -> List[type]:
    """Every class under ``repro.core`` that defines ``on_cycle_start``."""
    for module in pkgutil.iter_modules(repro.core.__path__):
        importlib.import_module(f"repro.core.{module.name}")
    found, queue = set(), [Scheme]
    while queue:
        cls = queue.pop()
        queue.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.core.") and (
            "on_cycle_start" in vars(cls)
        ):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)

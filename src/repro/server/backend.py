"""The server backend seam: who builds, airs and commits each cycle.

* :class:`ServerBackend` -- the contract: a ``process()`` generator that
  drives the broadcast to ``num_cycles`` and the two counters the result
  aggregation reads (``cycles_completed``, ``total_slots``).
* :class:`SingleChannelBackend` -- the paper's monolithic server and the
  only single-channel cycle loop in the repository.  It asks its
  environment for nothing but ``timeout()``, so it runs unchanged as a
  kernel process (:class:`~repro.runtime.Simulation`) and stepped by
  hand on a kernel-less clock
  (:class:`~repro.cohort.trace.KernellessServer`, behind the cohort
  trace and the live socket); event order, metric observations, trace
  emissions and engine RNG draws are the same either way.

The sharded multi-channel server (:mod:`repro.shard`) is the other
backend: the same builder/engine/pruning order over *K* channels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, Optional

from repro.broadcast.channel import BroadcastChannel
from repro.config import ModelParameters
from repro.core.control import InvalidationReport, ReportSchedule
from repro.obs.trace import EV_CYCLE_END, EV_CYCLE_START, Tracer
from repro.server.broadcast import ProgramBuilder
from repro.server.transactions import TransactionEngine, merge_outcomes
from repro.sim.engine import Environment
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry


class ServerBackend(ABC):
    """One server implementation: builds programs, airs them, commits."""

    #: Cycles fully completed so far (read by the result aggregation).
    cycles_completed: int = 0
    #: Sum of per-cycle program lengths, in slots.
    total_slots: int = 0

    @abstractmethod
    def process(self) -> Generator:
        """The server loop: a simulation process generator that returns
        after ``num_cycles`` broadcast cycles."""


class SingleChannelBackend(ServerBackend):
    """The monolithic single-channel server of the paper (Section 2)."""

    def __init__(
        self,
        *,
        env: Environment,
        params: ModelParameters,
        report_schedule: ReportSchedule,
        metrics: MetricsRegistry,
        engine: TransactionEngine,
        builder: ProgramBuilder,
        channel: BroadcastChannel,
        trace_cycles: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.params = params
        self.report_schedule = report_schedule
        self.metrics = metrics
        self.engine = engine
        self.builder = builder
        self.channel = channel
        self._trace_c = trace_cycles
        self.cycles_completed = 0
        self.total_slots = 0

    def process(self) -> Generator:
        cycle = 1
        outcome = None
        while cycle <= self.params.sim.num_cycles:
            program = self.builder.build(cycle, outcome)
            self.metrics.observe(metric_names.BROADCAST_SLOTS, program.total_slots)
            self.metrics.observe(
                metric_names.BROADCAST_CONTROL_SLOTS, program.control_slots
            )
            self.metrics.observe(
                metric_names.BROADCAST_OVERFLOW_SLOTS,
                len(program.overflow_buckets),
            )
            if self._trace_c is not None:
                self._trace_c.emit(
                    EV_CYCLE_START, cycle=cycle, **program.slot_breakdown()
                )
            self.channel.begin_cycle(program)
            # Transactions logically commit *during* the cycle that just
            # aired; their values go out with the next cycle's snapshot.
            # With sub-cycle reports (§7) the commits are spread over the
            # report intervals and announced as they happen.
            intervals = self.report_schedule.per_cycle
            if intervals == 1:
                yield self.env.timeout(program.total_slots)
                outcome = self.engine.run_cycle(cycle)
            else:
                outcome = yield from self._run_cycle_in_intervals(
                    cycle, program, intervals
                )
            # Oracle runs (keep_history) keep the full server graph; bound
            # it like the clients' (Lemma 1).  A no-op on the serving path.
            retention = max(self.params.server.retention, 2)
            self.engine.prune_graph_before(cycle - 4 * retention)
            self.cycles_completed = cycle
            self.total_slots += program.total_slots
            if self._trace_c is not None:
                self._trace_c.emit(
                    EV_CYCLE_END,
                    cycle=cycle,
                    updates=len(outcome.updated_items) if outcome else 0,
                )
            cycle += 1

    def _run_cycle_in_intervals(self, cycle, program, intervals):
        """One cycle with sub-cycle invalidation reports (§7).

        The cycle's server transactions commit in ``intervals`` batches at
        the interval boundaries; each batch's updates (except the last,
        which coincides with the next main report) are announced
        immediately as an interim report tagged with the cycle at whose
        start they become visible.
        """
        total = self.params.server.transactions_per_cycle
        bounds = [round(i * total / intervals) for i in range(intervals + 1)]
        h = program.total_slots / intervals
        parts = []
        for j in range(intervals):
            yield self.env.timeout(h)
            part = self.engine.run_batch(cycle, range(bounds[j], bounds[j + 1]))
            parts.append(part)
            if j < intervals - 1 and part.updated_items:
                self.metrics.count(metric_names.BROADCAST_INTERIM_REPORTS)
                self.channel.publish_interim_report(
                    InvalidationReport(
                        cycle=cycle + 1, updated_items=part.updated_items
                    )
                )
        outcome = merge_outcomes(parts)
        self.engine.record_outcome(outcome)
        return outcome

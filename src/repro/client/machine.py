"""The broadcast client: runs queries through a processing scheme.

One :class:`BroadcastClient` owns one scheme instance, one cache, and one
query generator, and executes queries sequentially: draw a query, attempt
it, retry on abort (up to ``max_attempts``), move on.  All consistency
logic lives in the scheme; the machine provides the plumbing -- think
times, read bookkeeping, retries, metrics -- and the *scalability
property*: the only inputs a client ever consumes are the broadcast
channel's cycle-start notifications and bucket deliveries.

With a :class:`~repro.resilience.ClientResilience` bundle attached, the
machine additionally routes every retry through the bundle's policy
(waiting out the decided number of heard cycles), enforces query
deadlines, feeds the starvation watchdog, takes periodic checkpoints,
injects crash-restart outages (wiping cache + scheme control state,
then choosing incremental catch-up vs flush-and-rejoin on restart), and
walks the degradation ladder as the channel sickens and heals.  Without
a bundle (the default) every one of those paths is behind a single
``is None`` test, so the seed behaviour -- and its benchmarks -- are
untouched.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.program import BroadcastProgram
from repro.client.cache import ClientCache
from repro.client.disconnect import DisconnectionModel, NeverDisconnected
from repro.client.query import Query, QueryGenerator
from repro.config import ClientParameters
from repro.core.base import ReadAborted, ReadContext, Scheme
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    TransactionStatus,
)
from repro.obs.trace import (
    EV_CACHE_FLUSH,
    EV_CLIENT_RESYNC,
    EV_CONTROL_DECODE,
    EV_QUERY_ABORT,
    EV_QUERY_ACCEPT,
    EV_QUERY_BEGIN,
    EV_QUERY_READ,
    EV_RESILIENCE_CHECKPOINT,
    EV_RESILIENCE_CRASH,
    EV_RESILIENCE_DEADLINE,
    EV_RESILIENCE_DEGRADE,
    EV_RESILIENCE_RESTART,
    EV_RESILIENCE_RESTORE,
    EV_RESILIENCE_RETRY,
    EV_RESILIENCE_WATCHDOG,
    Tracer,
    gate,
)
from repro.resilience import ClientResilience
from repro.resilience.checkpoint import ClientCheckpoint, select_resync
from repro.resilience.degradation import DegradationLevel
from repro.server.database import TrimmedHistoryError
from repro.sim.engine import Environment
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry


class ClientRuntime:
    """The narrow surface a scheme can touch (no server handle exists)."""

    def __init__(
        self,
        env: Environment,
        channel: BroadcastChannel,
        cache: Optional[ClientCache],
        metrics: MetricsRegistry,
        params: ClientParameters,
    ) -> None:
        self.env = env
        self.channel = channel
        self.cache = cache
        self.metrics = metrics
        self.params = params


class BroadcastClient:
    """One client process: queries, retries, metrics."""

    def __init__(
        self,
        env: Environment,
        channel: BroadcastChannel,
        scheme: Scheme,
        params: ClientParameters,
        metrics: Optional[MetricsRegistry] = None,
        rng: Optional[random.Random] = None,
        disconnect: Optional[DisconnectionModel] = None,
        client_id: int = 0,
        warmup_cycles: int = 0,
        tracer: Optional[Tracer] = None,
        resilience: Optional[ClientResilience] = None,
        keep_history: bool = True,
    ) -> None:
        self.env = env
        self.channel = channel
        self.scheme = scheme
        self.params = params
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rng = rng if rng is not None else random.Random()
        self.disconnect = disconnect if disconnect is not None else NeverDisconnected()
        self.client_id = client_id
        self.warmup_cycles = warmup_cycles
        #: Gated tracer references: ``None`` unless the level covers the
        #: event class, so the disabled path costs one ``is None`` test.
        self._trace_q = gate(tracer, "queries")
        self._trace_r = gate(tracer, "reads")

        self.cache: Optional[ClientCache] = None
        if scheme.use_cache and params.cache_size > 0:
            old_capacity = 0
            if scheme.requirements().needs_versions_on_items:
                old_capacity = int(params.cache_size * params.old_version_fraction)
            self.cache = ClientCache(params.cache_size, old_capacity=old_capacity)

        self.generator = QueryGenerator(params, rng=self.rng)
        self.listening = True
        self.last_heard_cycle = 0
        self.missed_cycles = 0
        #: Was the current deaf spell caused by the fault layer (lost or
        #: corrupted control info) rather than the disconnection model?
        self._fault_desynced = False
        #: Resilience bundle; ``None`` keeps the seed behaviour exactly.
        self.resilience = resilience
        #: Last cycle of the crash outage in progress, or ``None``.
        self._down_until: Optional[int] = None
        #: Cycle at which the client reconnected/restarted, armed until
        #: the first commit after it (the time-to-recover sample).
        self._recover_since: Optional[int] = None
        #: The attempt currently executing, for fault-abort attribution.
        self._current_txn: Optional[ReadOnlyTransaction] = None
        self._txn_counter = 0
        #: Every finished attempt, in completion order, under
        #: ``keep_history`` only; see :attr:`completed`.
        self._completed: Optional[list] = [] if keep_history else None

        runtime = ClientRuntime(env, channel, self.cache, self.metrics, params)
        scheme.attach(ReadContext(runtime))
        channel.subscribe(self)
        self.process = env.process(self.run())

    @property
    def completed(self) -> list:
        """Every finished attempt, in completion order: what the
        correctness oracle replays against the database.  A client built
        without ``keep_history`` keeps none, and asking raises rather
        than answer with an empty list an oracle would pass."""
        if self._completed is None:
            raise TrimmedHistoryError(
                f"client {self.client_id} kept no finished attempts; "
                "build the run with keep_history=True to read completed"
            )
        return self._completed

    # -- channel listener -----------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        cycle = program.cycle
        res = self.resilience
        if res is not None:
            if self._consume_down_cycle(cycle):
                return
            if self._down_until is not None:
                self._restart(program)
        if not self.disconnect.is_listening(cycle):
            self._miss_cycle(cycle, fault=False)
            return
        if not self.listening:
            self._resynchronize(program, self.last_heard_cycle)
            if self._fault_desynced:
                self.metrics.count(metric_names.FAULT_RECOVERIES)
                self._fault_desynced = False
            if res is not None:
                self._recover_since = cycle
        self.listening = True
        self.last_heard_cycle = cycle
        if self._trace_r is not None:
            control = program.control
            self._trace_r.emit(
                EV_CONTROL_DECODE,
                client=self.client_id,
                cycle=cycle,
                invalidated=len(control.invalidation.updated_items),
                has_graph_diff=control.graph_diff is not None,
            )
        if self.cache is not None:
            self.cache.handle_cycle_start(program, self.channel)
        self.scheme.on_cycle_start(program)
        if res is not None:
            self._after_heard_cycle(cycle)

    def on_interim_report(self, report) -> None:
        """Forward a mid-cycle report to the scheme (if listening)."""
        if self.listening:
            self.scheme.on_interim_report(report)

    def on_signal_lost(self, cycle: int) -> None:
        """The fault layer dropped this cycle's control information.

        Without the report nothing heard this cycle can be validated, so
        the cycle counts as missed -- the same conservative degrade as a
        disconnection, which reuses the resynchronization path (and its
        safety argument) on the next heard cycle.
        """
        if self.resilience is not None:
            if self._consume_down_cycle(cycle):
                return
            if self._down_until is not None:
                # The would-be restart cycle's control was lost too: the
                # client cannot resync off it, so the outage extends one
                # cycle and the next heard control triggers the restart.
                self.missed_cycles += 1
                return
        self._miss_cycle(cycle, fault=True)

    def _miss_cycle(self, cycle: int, fault: bool) -> None:
        if self.listening and not fault:
            self.metrics.count(metric_names.CLIENT_DISCONNECTIONS)
        self.listening = False
        self.missed_cycles += 1
        if fault:
            self._fault_desynced = True
        res = self.resilience
        if res is not None and res.ladder is not None:
            self._apply_ladder(res.ladder.record_cycle(faulty=True), cycle)
        txn = self._current_txn
        was_active = txn is not None and txn.status is TransactionStatus.ACTIVE
        self.scheme.on_missed_cycle(cycle)
        if (
            fault
            and was_active
            and txn is not None
            and txn.status is TransactionStatus.ABORTED
        ):
            self.metrics.count(metric_names.FAULT_FORCED_ABORTS)
            # The scheme recorded *what* killed the query (a missed cycle);
            # record *why* the cycle was missed so the chain bottoms out at
            # the injected fault.
            txn.cause_chain.append({"event": "fault_forced", "cycle": cycle})

    def _resynchronize(
        self, program: BroadcastProgram, last_heard: int, **trace_fields
    ) -> None:
        """Reconnect after missed cycles: the cache cannot be trusted.

        If the control segment retransmits reports covering every missed
        cycle (the w-window extension, §7), replay them in order; else
        drop the cache entirely -- stale entries would otherwise serve
        values the client wrongly believes current.  ``last_heard`` is
        the last cycle heard on the channel ``program`` came from; a
        multi-tuner client names that channel in ``trace_fields``.
        """
        if self.cache is None:
            return
        self.metrics.count(metric_names.CLIENT_RESYNCS)
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_CLIENT_RESYNC,
                client=self.client_id,
                cycle=program.cycle,
                **trace_fields,
                last_heard=last_heard,
            )
        control = program.control
        if control.missed_window_ok(last_heard):
            for missed in range(last_heard + 1, program.cycle):
                report = control.report_covering(missed)
                if report is not None:
                    self.cache.apply_missed_report(report)
        else:
            self.cache.clear()
            self.metrics.count(metric_names.CLIENT_CACHE_DROPS)
            if self._trace_q is not None:
                self._trace_q.emit(
                    EV_CACHE_FLUSH,
                    client=self.client_id,
                    cycle=program.cycle,
                    reason="resync_window_exceeded",
                )

    # -- crash / restart / degradation (resilience bundle only) ---------------

    def _consume_down_cycle(self, cycle: int) -> bool:
        """Handle one cycle while crashed-down; True when consumed.

        A down client is off: no scheme hooks run, nothing is heard.  A
        crash *starting* at this cycle is also triggered here, so the
        caller (heard or signal-lost path alike) stops processing.
        """
        res = self.resilience
        if self._down_until is not None:
            if cycle <= self._down_until:
                self.missed_cycles += 1
                return True
            return False
        if res.crashes is not None:
            window = res.crashes.crash_starting_at(cycle)
            if window is not None:
                self._crash(cycle, window[1])
                return True
        return False

    def _crash(self, cycle: int, down_until: int) -> None:
        """Lose all in-memory state and go off the air until restart."""
        self.metrics.count(metric_names.RESILIENCE_CRASHES)
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_RESILIENCE_CRASH,
                client=self.client_id,
                cycle=cycle,
                down_until=down_until,
            )
        txn = self._current_txn
        if txn is not None and txn.status is TransactionStatus.ACTIVE:
            txn.abort(
                AbortReason.DISCONNECTED,
                self.env.now,
                cycle,
                cause={"event": "crash", "cycle": cycle},
            )
        self.scheme.reset_state()
        if self.cache is not None:
            self.cache.clear()
        self.listening = False
        self._fault_desynced = False
        self.missed_cycles += 1
        self._down_until = down_until

    def _restart(self, program: BroadcastProgram) -> None:
        """First heard cycle after a crash outage: rejoin the broadcast.

        The cache is cleared first (an in-flight read may have leaked an
        air value into it mid-outage), then the resync protocol is
        chosen: *catch-up* restores the latest checkpoint and replays
        the w-window's retransmitted reports over it -- the same safety
        argument as the live resynchronization path -- while *rejoin*
        starts cold.  Scheme control state goes through
        :meth:`~repro.core.base.Scheme.restore_state`, which knows how
        much of it survives a gap.
        """
        res = self.resilience
        cycle = program.cycle
        self._down_until = None
        if self.cache is not None:
            self.cache.clear()
        checkpoint = (
            res.checkpoints.latest if res.checkpoints is not None else None
        )
        control = program.control
        covered = checkpoint is not None and control.missed_window_ok(
            checkpoint.cycle
        )
        protocol = select_resync(
            checkpoint, cycle, res.params.catchup_window, covered
        )
        if protocol == "catchup":
            assert checkpoint is not None
            self.metrics.count(metric_names.RESILIENCE_CHECKPOINT_RESTORES)
            if self.cache is not None:
                self.cache.restore_entries(
                    checkpoint.cache_current, checkpoint.cache_old
                )
                for missed in range(checkpoint.cycle + 1, cycle):
                    report = control.report_covering(missed)
                    if report is not None:
                        self.cache.apply_missed_report(report)
            if checkpoint.scheme_state is not None:
                self.scheme.restore_state(
                    checkpoint.scheme_state, cycle - checkpoint.cycle - 1
                )
            if self._trace_q is not None:
                self._trace_q.emit(
                    EV_RESILIENCE_RESTORE,
                    client=self.client_id,
                    cycle=cycle,
                    checkpoint_cycle=checkpoint.cycle,
                    entries=len(checkpoint.cache_current)
                    + len(checkpoint.cache_old),
                )
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_RESILIENCE_RESTART,
                client=self.client_id,
                cycle=cycle,
                protocol=protocol,
            )
        # Resynchronized by construction: skip the legacy resync branch.
        self.listening = True
        self._recover_since = cycle

    def _after_heard_cycle(self, cycle: int) -> None:
        """Resilience bookkeeping on a fully heard cycle."""
        res = self.resilience
        if res.ladder is not None:
            self._apply_ladder(res.ladder.record_cycle(faulty=False), cycle)
        if res.checkpoints is not None and res.checkpoints.due(cycle):
            self._save_checkpoint(cycle)

    def _save_checkpoint(self, cycle: int) -> None:
        res = self.resilience
        current: list = []
        old: list = []
        if self.cache is not None:
            current, old = self.cache.export_entries()
        state = self.scheme.export_state()
        res.checkpoints.save(
            ClientCheckpoint(
                cycle=cycle,
                cache_current=current,
                cache_old=old,
                scheme_state=dict(state) if state is not None else None,
            )
        )
        self.metrics.count(metric_names.RESILIENCE_CHECKPOINT_SAVES)
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_RESILIENCE_CHECKPOINT,
                client=self.client_id,
                cycle=cycle,
                entries=len(current) + len(old),
            )

    def _apply_ladder(self, transition, cycle: int) -> None:
        """Apply one degradation-ladder transition to the cache."""
        if transition is None:
            return
        old_level, new_level = transition
        self.metrics.count(metric_names.RESILIENCE_DEGRADATION_TRANSITIONS)
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_RESILIENCE_DEGRADE,
                client=self.client_id,
                cycle=cycle,
                from_level=old_level.name,
                to_level=new_level.name,
            )
        if self.cache is None:
            return
        if new_level is DegradationLevel.NORMAL:
            self.cache.autoprefetch_enabled = True
            self.cache.bypass = False
        elif new_level is DegradationLevel.NO_PREFETCH:
            self.cache.autoprefetch_enabled = False
            self.cache.bypass = False
        else:  # BYPASS_CACHE: flushed and blind -- nothing can go stale.
            self.cache.autoprefetch_enabled = False
            self.cache.bypass = True
            self.cache.clear()

    # -- the client loop ---------------------------------------------------------

    def run(self) -> Generator:
        if not self.channel.on_air:
            yield self.channel.cycle_started()
        while True:
            query = self.generator.next_query()
            yield from self._run_query(query)

    def _run_query(self, query: Query) -> Generator:
        res = self.resilience
        attempts = 0
        committed = False
        start_cycle = self.channel.current_cycle
        measured = start_cycle > self.warmup_cycles
        if res is not None:
            res.policy.new_query()
        while attempts < self.params.max_attempts and not committed:
            attempts += 1
            txn = self._new_transaction(query)
            if self._trace_q is not None:
                self._trace_q.emit(
                    EV_QUERY_BEGIN,
                    client=self.client_id,
                    txn=txn.txn_id,
                    cycle=txn.start_cycle,
                    items=list(txn.items),
                    attempt=attempts,
                    measured=measured,
                )
            yield from self._attempt(txn)
            if self._completed is not None:
                self._completed.append(txn)
            committed = txn.status is TransactionStatus.COMMITTED
            if self._trace_q is not None:
                self._emit_outcome(txn, attempts, measured)
            if measured:
                self._record_attempt(txn)
            if committed and self._recover_since is not None:
                # Time-to-recover: cycles from reconnect/restart to the
                # first commit proving the client is productive again.
                self.metrics.observe(
                    metric_names.TIME_TO_RECOVER_CYCLES,
                    max(0, (txn.end_cycle or 0) - self._recover_since),
                )
                self._recover_since = None
            if res is not None:
                if res.watchdog is not None and res.watchdog.record_attempt(
                    committed
                ):
                    self._escalate(txn)
                if not committed and attempts < self.params.max_attempts:
                    if not (yield from self._between_attempts(res, txn, attempts, start_cycle)):
                        break
        if measured:
            self.metrics.record_outcome(metric_names.QUERY_COMPLETED, committed)
            self.metrics.observe(metric_names.QUERY_ATTEMPTS, attempts)
            if self.cache is not None:
                self.metrics.observe(
                    metric_names.CACHE_HIT_RATIO, self.cache.hit_ratio
                )

    def _between_attempts(
        self,
        res: ClientResilience,
        txn: ReadOnlyTransaction,
        attempts: int,
        start_cycle: int,
    ) -> Generator:
        """Deadline check + policy routing after one aborted attempt.

        Returns True to retry (after waiting out the decided delay),
        False to give the query up.  This replaces the seed's blind
        immediate retry, which could burn the whole ``max_attempts``
        budget inside a single dead or contended cycle.
        """
        deadline = res.params.deadline_cycles
        if deadline > 0 and self.channel.current_cycle - start_cycle >= deadline:
            self.metrics.count(metric_names.RESILIENCE_DEADLINE_ABANDONED)
            if self._trace_q is not None:
                self._trace_q.emit(
                    EV_RESILIENCE_DEADLINE,
                    client=self.client_id,
                    txn=txn.txn_id,
                    cycle=self.channel.current_cycle,
                    started=start_cycle,
                )
            return False
        decision = res.policy.decide(attempts, txn.abort_reason)
        if not decision.retry:
            return False
        self.metrics.count(metric_names.RESILIENCE_RETRIES)
        self.metrics.observe(
            metric_names.RESILIENCE_RETRY_DELAY, decision.delay_cycles
        )
        if self._trace_q is not None:
            reason = txn.abort_reason
            self._trace_q.emit(
                EV_RESILIENCE_RETRY,
                client=self.client_id,
                txn=txn.txn_id,
                cycle=self.channel.current_cycle,
                attempt=attempts,
                delay=decision.delay_cycles,
                reason=reason.value if reason is not None else None,
            )
        for _ in range(decision.delay_cycles):
            yield self.channel.cycle_started()
        return True

    def _escalate(self, txn: ReadOnlyTransaction) -> None:
        """Watchdog escalation: the client is starving -- reset what a
        poisoned cache could be contributing and step the ladder down."""
        res = self.resilience
        cycle = self.channel.current_cycle
        self.metrics.count(metric_names.RESILIENCE_WATCHDOG_ESCALATIONS)
        if self._trace_q is not None:
            self._trace_q.emit(
                EV_RESILIENCE_WATCHDOG,
                client=self.client_id,
                txn=txn.txn_id,
                cycle=cycle,
                threshold=res.watchdog.threshold,
            )
        if self.cache is not None and not self.cache.bypass:
            self.cache.clear()
            if self._trace_q is not None:
                self._trace_q.emit(
                    EV_CACHE_FLUSH,
                    client=self.client_id,
                    cycle=cycle,
                    reason="watchdog_escalation",
                )
        if res.ladder is not None:
            self._apply_ladder(res.ladder.force_step_down(), cycle)

    def _emit_outcome(
        self, txn: ReadOnlyTransaction, attempt: int, measured: bool
    ) -> None:
        """Emit the accept/abort event for one finished attempt.

        The ``measured`` flag is the same one gating the metrics path, so
        ``TraceAnalyzer.abort_breakdown(measured_only=True)`` agrees with
        the ``abort.*`` counters exactly.
        """
        tracer = self._trace_q
        assert tracer is not None
        if txn.status is TransactionStatus.COMMITTED:
            tracer.emit(
                EV_QUERY_ACCEPT,
                client=self.client_id,
                txn=txn.txn_id,
                cycle=txn.end_cycle,
                attempt=attempt,
                measured=measured,
                span=txn.span,
            )
        else:
            reason = txn.abort_reason or AbortReason.INVALIDATED
            tracer.emit(
                EV_QUERY_ABORT,
                client=self.client_id,
                txn=txn.txn_id,
                cycle=txn.end_cycle,
                attempt=attempt,
                measured=measured,
                reason=reason.value,
                cause=list(txn.cause_chain),
            )

    def _new_transaction(self, query: Query) -> ReadOnlyTransaction:
        self._txn_counter += 1
        return ReadOnlyTransaction(
            txn_id=f"c{self.client_id}.q{query.query_id}.a{self._txn_counter}",
            items=list(query.items),
            start_time=self.env.now,
            start_cycle=self.channel.current_cycle,
        )

    def _attempt(self, txn: ReadOnlyTransaction) -> Generator:
        self._current_txn = txn
        self.scheme.begin(txn)
        # Bound once per attempt: these run once or twice per read.
        think_time = self.generator.think_time
        timeout = self.env.timeout
        read = self.scheme.read
        record_read = txn.record_read
        doomed = TransactionStatus.ABORTED
        try:
            for item in txn.items:
                think = think_time()
                if think > 0:
                    yield timeout(think)
                # A disconnected client receives nothing: block until the
                # first cycle start it actually hears (its cache is also
                # unsafe until the resynchronization there has run).
                if not self.listening:
                    yield from self._await_readable(item)
                if txn.status is doomed:
                    self._raise_if_doomed(txn)
                result = yield from read(txn, item)
                if txn.status is doomed:
                    self._raise_if_doomed(txn)
                record_read(result)
                if self._trace_r is not None:
                    self._trace_r.emit(
                        EV_QUERY_READ,
                        client=self.client_id,
                        txn=txn.txn_id,
                        item=result.item,
                        version=result.version,
                        cycle=result.read_cycle,
                        from_cache=result.from_cache,
                    )
            self._raise_if_doomed(txn)
            self.scheme.finish(txn)
            txn.commit(self.env.now, self.channel.current_cycle)
        except ReadAborted as aborted:
            if txn.status is not TransactionStatus.ABORTED:
                txn.abort(
                    aborted.reason,
                    self.env.now,
                    self.channel.current_cycle,
                    cause=aborted.cause,
                )
        finally:
            self.scheme.end(txn)
            self._current_txn = None
        return txn

    def _await_readable(self, item: int) -> Generator:
        """Block until the channel serving ``item`` is heard again.

        The single-channel client listens to exactly one channel, so this
        waits for its next heard cycle start.  The multi-tuner client
        (:class:`repro.shard.ShardedClient`) overrides it to wait only on
        the shard that carries ``item``.
        """
        while not self.listening:
            yield self.channel.cycle_started()

    def _raise_if_doomed(self, txn: ReadOnlyTransaction) -> None:
        """An invalidation report may have aborted the transaction while
        it was thinking or waiting on the channel."""
        if txn.status is TransactionStatus.ABORTED:
            raise ReadAborted(
                txn.abort_reason or AbortReason.INVALIDATED,
                f"{txn.txn_id} was aborted between operations",
            )

    # -- metrics ---------------------------------------------------------------------

    def _record_attempt(self, txn: ReadOnlyTransaction) -> None:
        committed = txn.status is TransactionStatus.COMMITTED
        self.metrics.record_outcome(metric_names.ATTEMPT_COMMITTED, committed)
        if committed:
            self.metrics.observe(
                metric_names.TXN_LATENCY_CYCLES, txn.latency_cycles
            )
            self.metrics.observe(
                metric_names.TXN_LATENCY_SLOTS,
                (txn.end_time or 0.0) - txn.start_time,
            )
            self.metrics.observe(metric_names.TXN_SPAN, txn.span)
            cache_reads = sum(1 for r in txn.reads.values() if r.from_cache)
            self.metrics.observe(metric_names.TXN_CACHE_READS, cache_reads)
            state_cycle = self.scheme.state_cycle(txn)
            if state_cycle is not None and txn.end_cycle is not None:
                # Currency (Table 1): how far behind the commit-time state
                # the transaction's consistent view is.
                self.metrics.observe(
                    metric_names.TXN_CURRENCY_LAG, txn.end_cycle - state_cycle
                )
        else:
            reason = txn.abort_reason or AbortReason.INVALIDATED
            self.metrics.count(metric_names.abort_metric(reason.value))

"""Cross-shard consistency: one scheme instance per touched shard.

A client of the sharded broadcast runs one :class:`MultiShardScheme`,
which owns an independent instance of the underlying scheme per
subscribed shard and routes every hook by item ownership:

* ``read(txn, item)`` goes to the sub-scheme of the item's shard, whose
  :class:`_ShardContext` points channel accesses at that shard's (per
  client, possibly fault-wrapped) channel;
* ``on_shard_cycle_start``/``on_shard_missed_cycle`` (called by the
  multi-tuner client) go to the shard that aired or missed the cycle.

Consistency modes
-----------------
``local``
    Each sub-scheme enforces its invariant against its own shard's
    serialization order.  For the snapshot-based schemes (invalidation,
    versioned cache, multiversion) the shared transaction state -- the
    first-invalidation deadline ``c_u`` and the first-read cycle ``c0``
    -- composes the per-shard guarantees into one *global* snapshot,
    because all shard cycles are epoch-aligned (see DESIGN §13).  SGT is
    the exception: per-shard serializability does not compose, so a
    multi-shard SGT query is only shard-wise serializable.

``epoch``
    Adds a strict currency discipline on top: a query touching more than
    one shard is aborted (``AbortReason.EPOCH_MISMATCH``) the moment any
    touched shard's invalidation report hits its readset, or any touched
    shard's cycle is missed, *before* the sub-scheme gets to salvage it
    (marking, old versions).  Committed multi-shard queries therefore
    read the globally current snapshot of their commit epoch.  Schemes
    that pin a global snapshot by construction (``needs_old_versions``,
    i.e. multiversion) are exempt -- their ``c0`` snapshot is already
    epoch-consistent.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.broadcast.program import BroadcastProgram
from repro.core.base import ReadContext, Scheme
from repro.core.control import BroadcastRequirements
from repro.core.transaction import (
    AbortReason,
    ReadOnlyTransaction,
    TransactionStatus,
)
from repro.shard.partition import Partitioner
from repro.stats import names as metric_names

CONSISTENCY_MODES = ("local", "epoch")


class _ShardContext(ReadContext):
    """A read context whose channel is one shard's channel.

    Everything else (env, cache, metrics) is shared with the client's
    primary context, so sub-schemes on different shards share the one
    client cache and metrics registry.
    """

    __slots__ = ()

    def __init__(self, runtime, channel) -> None:
        super().__init__(runtime)
        self.channel = channel


class MultiShardScheme(Scheme):
    """Routes one client's scheme traffic across per-shard sub-schemes."""

    def __init__(
        self,
        factory: Callable[[], Scheme],
        partitioner: Partitioner,
        mode: str = "local",
    ) -> None:
        if mode not in CONSISTENCY_MODES:
            raise ValueError(
                f"Unknown consistency mode {mode!r}; known: "
                + ", ".join(CONSISTENCY_MODES)
            )
        self._factory = factory
        self._partitioner = partitioner
        self.mode = mode
        #: Template instance: answers requirements/use_cache/label before
        #: the per-shard channels exist.
        self._probe = factory()
        self._requirements = self._probe.requirements()
        self._needs_old = self._requirements.needs_old_versions
        self._subs: Dict[int, Scheme] = {}
        self._channels: Dict[int, object] = {}
        #: txn_id -> (txn, touched shard tuple), for the epoch discipline
        #: and end() routing.
        self._active: Dict[str, Tuple[ReadOnlyTransaction, Tuple[int, ...]]] = {}
        super().__init__(use_cache=self._probe.use_cache)

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._probe.name

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"{self._probe.label}@{self._partitioner.num_shards}sh/{self.mode}"

    def requirements(self) -> BroadcastRequirements:
        return self._probe.requirements()

    # -- wiring ------------------------------------------------------------

    def bind_channels(self, channels: Dict[int, object]) -> None:
        """Install this client's per-shard channels and build the
        sub-schemes; must run before the client constructs (and thereby
        attaches) the scheme."""
        self._channels = dict(channels)
        self._subs = {shard: self._factory() for shard in sorted(channels)}

    def attach(self, ctx: ReadContext) -> None:
        if not self._subs:
            raise RuntimeError("bind_channels() must run before attach()")
        super().attach(ctx)
        runtime = ctx._runtime
        for shard, sub in self._subs.items():
            sub.attach(_ShardContext(runtime, self._channels[shard]))

    def _shard_of(self, item: int) -> int:
        return self._partitioner.shard_of(item)

    def _sub_for(self, item: int) -> Scheme:
        return self._subs[self._shard_of(item)]

    # -- per-shard cycle hooks (called by ShardedClient) -------------------

    def on_shard_cycle_start(self, shard: int, program: BroadcastProgram) -> None:
        if self.mode == "epoch" and not self._needs_old:
            report = program.control.invalidation
            for txn, touched in list(self._active.values()):
                if len(touched) < 2 or shard not in touched:
                    continue
                if not txn.is_active:
                    continue
                if report.updated_items.isdisjoint(txn.reads):
                    continue
                hit = report.invalidates(txn.readset)
                if hit:
                    self.ctx.metrics.count(metric_names.SHARD_EPOCH_ABORTS)
                    txn.abort(
                        AbortReason.EPOCH_MISMATCH,
                        self.ctx.env.now,
                        program.cycle,
                        cause={
                            "event": "epoch_mismatch",
                            "shard": shard,
                            "report_cycle": program.cycle,
                            "items": sorted(hit),
                        },
                    )
        self._subs[shard].on_cycle_start(program)

    def on_shard_missed_cycle(self, shard: int, cycle: int) -> None:
        if self.mode == "epoch" and not self._needs_old:
            for txn, touched in list(self._active.values()):
                if len(touched) < 2 or shard not in touched:
                    continue
                if not txn.is_active:
                    continue
                self.ctx.metrics.count(metric_names.SHARD_EPOCH_ABORTS)
                txn.abort(
                    AbortReason.EPOCH_MISMATCH,
                    self.ctx.env.now,
                    cycle,
                    cause={
                        "event": "epoch_missed_cycle",
                        "shard": shard,
                        "missed_cycle": cycle,
                    },
                )
        self._subs[shard].on_missed_cycle(cycle)

    # -- single-channel hooks (never used by the multi-tuner client, but
    # -- kept correct for direct driving in tests) -------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        for shard in self._subs:
            self.on_shard_cycle_start(shard, program)

    def on_missed_cycle(self, cycle: int) -> None:
        for shard in self._subs:
            self.on_shard_missed_cycle(shard, cycle)

    # -- transaction lifecycle ---------------------------------------------

    def begin(self, txn: ReadOnlyTransaction) -> None:
        touched = tuple(
            sorted(
                {
                    self._shard_of(item)
                    for item in txn.items
                    if self._shard_of(item) in self._subs
                }
            )
        )
        self._active[txn.txn_id] = (txn, touched)
        for shard in touched:
            self._subs[shard].begin(txn)

    def read(self, txn: ReadOnlyTransaction, item: int):
        result = yield from self._sub_for(item).read(txn, item)
        return result

    def finish(self, txn: ReadOnlyTransaction) -> None:
        _, touched = self._active.get(txn.txn_id, (txn, ()))
        for shard in touched:
            self._subs[shard].finish(txn)

    def end(self, txn: ReadOnlyTransaction) -> None:
        _, touched = self._active.pop(txn.txn_id, (txn, ()))
        for shard in touched:
            self._subs[shard].end(txn)
        if (
            txn.status is TransactionStatus.COMMITTED
            and len(self._shards_read(txn)) > 1
        ):
            self.ctx.metrics.count(metric_names.SHARD_CROSS_COMMITS)

    def _shards_read(self, txn: ReadOnlyTransaction) -> frozenset:
        return frozenset(self._shard_of(item) for item in txn.reads)

    def state_cycle(self, txn: ReadOnlyTransaction) -> Optional[int]:
        """Delegate to any sub-scheme: every scheme's answer is a pure
        function of the (shared) transaction state, so the shard choice
        is immaterial; SGT answers ``None`` either way."""
        shards = self._shards_read(txn)
        if not shards:
            return None
        return self._subs[min(shards)].state_cycle(txn)

    # -- checkpoint surface (resilience is rejected in sharded mode, but
    # -- reset keeps direct drivers honest) --------------------------------

    def reset_state(self) -> None:
        self._active.clear()
        for sub in self._subs.values():
            sub.reset_state()

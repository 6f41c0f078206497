"""The multi-tuner client: one tuner per shard its readset can touch.

:class:`ShardedClient` extends the single-channel
:class:`~repro.client.machine.BroadcastClient` with a channel map.  The
*primary* shard (lowest subscribed index) plays the role of the base
class's only channel -- query pacing, warmup accounting and commit-cycle
stamps all key off it -- while :class:`_ShardListener` adapters forward
the other shards' cycle starts and signal losses into per-shard
listening state.

With exactly one subscribed shard every override delegates straight to
the base class, so a K=1 sharded simulation is *bit-identical* to the
single-channel simulation (the oracle in :mod:`repro.shard.oracle`
enforces this).
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional

from repro.broadcast.program import BroadcastProgram
from repro.client.machine import BroadcastClient
from repro.client.query import Query, QueryGenerator
from repro.core.transaction import TransactionStatus
from repro.obs.trace import EV_CONTROL_DECODE
from repro.shard.partition import Partitioner
from repro.stats import names as metric_names


class _ShardListener:
    """Subscribes a non-primary shard channel on a client's behalf."""

    __slots__ = ("_client", "_shard")

    def __init__(self, client: "ShardedClient", shard: int) -> None:
        self._client = client
        self._shard = shard

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        self._client._shard_cycle_start(self._shard, program)

    def on_signal_lost(self, cycle: int) -> None:
        self._client._miss_shard_cycle(self._shard, cycle, fault=True)


class CrossShardQueryShaper:
    """Wraps a :class:`QueryGenerator` to hit a target cross-shard rate.

    Draws pass through untouched unless the query's natural shard spread
    disagrees with an independent Bernoulli draw at ``fraction``: then
    one item is remapped (cross) or out-of-home items are pulled back
    into the first item's shard (confine), always within the client's
    read range.  The shaper has its own RNG so enabling it perturbs
    neither the query stream's identity (query ids, sizes) nor any other
    seeded stream.
    """

    def __init__(
        self,
        inner: QueryGenerator,
        partitioner: Partitioner,
        fraction: float,
        rng: random.Random,
        read_range: int,
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"cross-shard fraction must be in [0,1], got {fraction}")
        self._inner = inner
        self._partitioner = partitioner
        self._fraction = fraction
        self._rng = rng
        self._pools: Dict[int, list] = {}
        for item in range(1, read_range + 1):
            self._pools.setdefault(partitioner.shard_of(item), []).append(item)

    def think_time(self) -> float:
        return self._inner.think_time()

    def _pick(self, pool, exclude) -> Optional[int]:
        for _ in range(8):
            item = pool[self._rng.randrange(len(pool))]
            if item not in exclude:
                return item
        for item in pool:
            if item not in exclude:
                return item
        return None

    def next_query(self) -> Query:
        query = self._inner.next_query()
        items = list(query.items)
        if len(self._pools) < 2 or len(items) < 2:
            return query
        want_cross = self._rng.random() < self._fraction
        shards = {self._partitioner.shard_of(item) for item in items}
        if want_cross == (len(shards) > 1):
            return query
        home = self._partitioner.shard_of(items[0])
        if want_cross:
            others = [s for s in sorted(self._pools) if s != home]
            target = others[self._rng.randrange(len(others))]
            replacement = self._pick(self._pools[target], set(items))
            if replacement is None:
                return query
            items[-1] = replacement
        else:
            pool = self._pools[home]
            if len(pool) < len(items):
                return query
            for index, item in enumerate(items):
                if self._partitioner.shard_of(item) != home:
                    replacement = self._pick(pool, set(items))
                    if replacement is None:
                        return query
                    items[index] = replacement
        if self._inner.params.sort_reads:
            items.sort()
        return Query(query_id=query.query_id, items=tuple(items))


class ShardedClient(BroadcastClient):
    """A broadcast client tuned to every shard its readset can touch."""

    def __init__(
        self,
        *,
        env,
        channels: Dict[int, object],
        primary: int,
        partitioner: Partitioner,
        scheme,
        params,
        metrics=None,
        rng=None,
        disconnect=None,
        client_id: int = 0,
        warmup_cycles: int = 0,
        tracer=None,
        cross_fraction: Optional[float] = None,
        shaper_rng: Optional[random.Random] = None,
        keep_history: bool = True,
    ) -> None:
        self._shard_channels = dict(channels)
        self._partitioner = partitioner
        self._primary = primary
        self._single = len(channels) == 1
        self._listening_s = {shard: True for shard in channels}
        self._last_heard_s = {shard: 0 for shard in channels}
        #: Per-cycle memo of the disconnection model's verdict: the model
        #: is asked once per epoch, not once per shard, so storm metrics
        #: and state transitions are not multiplied by K.
        self._disc_cache = (0, True)
        super().__init__(
            env=env,
            channel=channels[primary],
            scheme=scheme,
            params=params,
            metrics=metrics,
            rng=rng,
            disconnect=disconnect,
            client_id=client_id,
            warmup_cycles=warmup_cycles,
            tracer=tracer,
            resilience=None,
            keep_history=keep_history,
        )
        for shard, channel in sorted(self._shard_channels.items()):
            if shard != primary:
                channel.subscribe(_ShardListener(self, shard))
        if cross_fraction is not None and not self._single:
            self.generator = CrossShardQueryShaper(
                self.generator,
                partitioner,
                cross_fraction,
                shaper_rng if shaper_rng is not None else random.Random(),
                read_range=params.read_range,
            )

    # -- channel listener ---------------------------------------------------

    def on_cycle_start(self, program: BroadcastProgram) -> None:
        if self._single:
            super().on_cycle_start(program)
            return
        self._shard_cycle_start(self._primary, program)

    def on_signal_lost(self, cycle: int) -> None:
        if self._single:
            super().on_signal_lost(cycle)
            return
        self._miss_shard_cycle(self._primary, cycle, fault=True)

    def _disconnect_allows(self, cycle: int) -> bool:
        if self._disc_cache[0] != cycle:
            self._disc_cache = (cycle, self.disconnect.is_listening(cycle))
        return self._disc_cache[1]

    def _shard_cycle_start(self, shard: int, program: BroadcastProgram) -> None:
        cycle = program.cycle
        if not self._disconnect_allows(cycle):
            self._miss_shard_cycle(shard, cycle, fault=False)
            return
        if not self._listening_s[shard]:
            # Entries from *other* shards are still valid, but the cache
            # is not shard-aware: a gap the window does not cover drops
            # it whole, the single-channel rule applied conservatively.
            self._resynchronize(
                program, self._last_heard_s[shard], shard=shard
            )
        self._listening_s[shard] = True
        if self._fault_desynced and all(self._listening_s.values()):
            # The whole tuner bank is coherent again: the fault recovery
            # completes.
            self.metrics.count(metric_names.FAULT_RECOVERIES)
            self._fault_desynced = False
        self._last_heard_s[shard] = cycle
        if shard == self._primary:
            self.last_heard_cycle = cycle
        self.listening = all(self._listening_s.values())
        if self._trace_r is not None:
            control = program.control
            self._trace_r.emit(
                EV_CONTROL_DECODE,
                client=self.client_id,
                cycle=cycle,
                shard=shard,
                invalidated=len(control.invalidation.updated_items),
                has_graph_diff=control.graph_diff is not None,
            )
        if self.cache is not None:
            self.cache.handle_cycle_start(program, self._shard_channels[shard])
        self.scheme.on_shard_cycle_start(shard, program)

    def _miss_shard_cycle(self, shard: int, cycle: int, fault: bool) -> None:
        if self._single:
            self._miss_cycle(cycle, fault)
            return
        if self._listening_s[shard] and not fault:
            self.metrics.count(metric_names.CLIENT_DISCONNECTIONS)
        self._listening_s[shard] = False
        self.listening = False
        self.missed_cycles += 1
        if fault:
            self._fault_desynced = True
        txn = self._current_txn
        was_active = txn is not None and txn.status is TransactionStatus.ACTIVE
        self.scheme.on_shard_missed_cycle(shard, cycle)
        if (
            fault
            and was_active
            and txn is not None
            and txn.status is TransactionStatus.ABORTED
        ):
            self.metrics.count(metric_names.FAULT_FORCED_ABORTS)
            txn.cause_chain.append(
                {"event": "fault_forced", "cycle": cycle, "shard": shard}
            )

    # -- read blocking ------------------------------------------------------

    def _await_readable(self, item: int) -> Generator:
        if self._single:
            yield from super()._await_readable(item)
            return
        shard = self._partitioner.shard_of(item)
        channel = self._shard_channels.get(shard)
        if channel is None:
            yield from super()._await_readable(item)
            return
        while not self._listening_s[shard]:
            yield channel.cycle_started()

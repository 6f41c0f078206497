"""The sharded multi-channel broadcast server.

:class:`ShardedSimulation` partitions the item space over ``K``
broadcast channels.  Each shard owns a full server substrate -- its own
transaction engine (restricted to the shard's items), program builder,
version store and channel -- while the one shared :class:`Database`
keeps the global item state authoritative.

Cycle alignment ("superframes")
-------------------------------
All shards begin cycle ``c`` at the same instant, in shard order; the
superframe lasts as long as the longest shard program.  The cycle number
therefore doubles as a *global epoch*: any two programs carrying the
same cycle number describe states current at the same moment.  This is
what lets the snapshot-based schemes compose per-shard guarantees into
global ones (DESIGN §13) and what the ``epoch`` consistency mode's
currency discipline is defined against.

K=1 bit-identity
----------------
With one shard the construction below performs *exactly* the RNG draws,
event creations, metric observations and trace emissions of
:class:`~repro.runtime.Simulation` -- it even reuses
:class:`~repro.server.backend.SingleChannelBackend` -- so results are
bit-identical; :mod:`repro.shard.oracle` enforces this differentially.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.schedule import Schedule
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.control import ReportSchedule
from repro.faults.injector import FaultInjector
from repro.obs.trace import (
    EV_CYCLE_END,
    EV_CYCLE_START,
    EV_SHARD_CYCLE_START,
    Tracer,
)
from repro.runtime import KernelSimulation
from repro.server.backend import ServerBackend
from repro.server.broadcast import ProgramBuilder
from repro.server.database import Database
from repro.server.substrate import build_substrate
from repro.server.transactions import TransactionEngine
from repro.shard.client import ShardedClient
from repro.shard.partition import Partitioner, make_partitioner
from repro.shard.scheme import CONSISTENCY_MODES, MultiShardScheme
from repro.sim.engine import Environment
from repro.stats import names as metric_names
from repro.stats.metrics import MetricsRegistry
from repro.stats.zipf import OffsetZipfGenerator

_MASK = (1 << 64) - 1
#: Salt for the cross-shard query shaper's RNG tree (independent of the
#: workload and fault streams, like the fault injector's salt).
_SHAPER_SALT = 0x5A4D_C0DE


class ShardSchedule(Schedule):
    """One shard's flat broadcast order: its items, ascending."""

    def __init__(self, items: Sequence[int]) -> None:
        if not items:
            raise ValueError("A shard schedule needs at least one item")
        self._order = sorted(items)

    def item_order(self) -> List[int]:
        return list(self._order)


@dataclass
class ShardState:
    """One shard's server substrate."""

    index: int
    items: tuple
    channel: BroadcastChannel
    builder: ProgramBuilder
    engine: Optional[TransactionEngine]
    retention: int
    #: Server transactions committed per cycle on this shard.
    txn_count: int
    #: First per-cycle sequence number, so TxnIds stay globally unique.
    seq_base: int
    injector: Optional[FaultInjector] = None


def apportion(total: int, masses: Sequence[float]) -> List[int]:
    """Largest-remainder apportionment of ``total`` units over ``masses``.

    Zero-mass entries get zero; the result always sums to ``total`` when
    any mass is positive.
    """
    weight = sum(masses)
    if weight <= 0 or total <= 0:
        return [0] * len(masses)
    quotas = [total * mass / weight for mass in masses]
    shares = [int(quota) for quota in quotas]
    leftover = total - sum(shares)
    by_remainder = sorted(
        range(len(masses)),
        key=lambda idx: (-(quotas[idx] - shares[idx]), idx),
    )
    for idx in by_remainder[:leftover]:
        if masses[idx] > 0:
            shares[idx] += 1
        else:
            # Push the unit to the largest-mass shard instead.
            best = max(range(len(masses)), key=lambda j: masses[j])
            shares[best] += 1
    return shares


class ShardedBroadcastBackend(ServerBackend):
    """Aligned-superframe driver over K shard substrates (one process).

    Every shard builds and airs its cycle-``c`` program at the same
    instant; the frame advances by the *longest* program.  Per-shard
    engines then commit their apportioned slice of the cycle's update
    transactions (visible at ``c + 1`` on their shard's next program).
    """

    def __init__(
        self,
        *,
        env: Environment,
        params: ModelParameters,
        metrics: MetricsRegistry,
        shards: Sequence[ShardState],
        trace_cycles: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.params = params
        self.metrics = metrics
        self.shards = list(shards)
        self._trace_c = trace_cycles
        self.cycles_completed = 0
        self.total_slots = 0

    def process(self):
        cycle = 1
        outcomes: Dict[int, object] = {shard.index: None for shard in self.shards}
        while cycle <= self.params.sim.num_cycles:
            programs = [
                shard.builder.build(cycle, outcomes[shard.index])
                for shard in self.shards
            ]
            superframe = max(program.total_slots for program in programs)
            self.metrics.observe(metric_names.BROADCAST_SLOTS, superframe)
            self.metrics.observe(
                metric_names.BROADCAST_CONTROL_SLOTS,
                sum(program.control_slots for program in programs),
            )
            self.metrics.observe(
                metric_names.BROADCAST_OVERFLOW_SLOTS,
                sum(len(program.overflow_buckets) for program in programs),
            )
            for shard, program in zip(self.shards, programs):
                self.metrics.observe(
                    metric_names.shard_metric(
                        shard.index, metric_names.BROADCAST_SLOTS
                    ),
                    program.total_slots,
                )
            if self._trace_c is not None:
                breakdowns = [program.slot_breakdown() for program in programs]
                totals = {
                    key: sum(b[key] for b in breakdowns)
                    for key in (
                        "control_slots",
                        "index_slots",
                        "data_slots",
                        "overflow_slots",
                    )
                }
                self._trace_c.emit(
                    EV_CYCLE_START,
                    cycle=cycle,
                    slots=superframe,
                    shards=len(self.shards),
                    **totals,
                )
                for shard, breakdown in zip(self.shards, breakdowns):
                    self._trace_c.emit(
                        EV_SHARD_CYCLE_START,
                        cycle=cycle,
                        shard=shard.index,
                        **breakdown,
                    )
            # All shards go on air at the same instant, in shard order.
            for shard, program in zip(self.shards, programs):
                shard.channel.begin_cycle(program)
            yield self.env.timeout(superframe)
            updates = 0
            for shard in self.shards:
                if shard.engine is None or shard.txn_count == 0:
                    outcomes[shard.index] = None
                    continue
                outcome = shard.engine.run_batch(
                    cycle, range(shard.seq_base, shard.seq_base + shard.txn_count)
                )
                shard.engine.record_outcome(outcome)
                shard.engine.prune_graph_before(
                    cycle - 4 * max(shard.retention, 2)
                )
                outcomes[shard.index] = outcome
                updates += len(outcome.updated_items)
            self.cycles_completed = cycle
            self.total_slots += superframe
            if self._trace_c is not None:
                self._trace_c.emit(EV_CYCLE_END, cycle=cycle, updates=updates)
            cycle += 1


class ShardedSimulation(KernelSimulation):
    """One sharded broadcast-push simulation (K channels, one database).

    ``shard_retention`` optionally tunes the old-version retention ``S``
    per shard (a sequence of K ints); the default applies the global
    ``ServerParameters.retention`` everywhere.
    """

    def __init__(
        self,
        params: ModelParameters,
        scheme_factory: Callable[[], Scheme],
        num_shards: int = 1,
        partitioner: str = "hash",
        consistency: str = "local",
        cross_shard_fraction: Optional[float] = None,
        schedule: Optional[Schedule] = None,
        keep_history: bool = False,
        report_schedule: Optional[ReportSchedule] = None,
        tracer: Optional[Tracer] = None,
        shard_retention: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(params, report_schedule, tracer)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"Unknown consistency mode {consistency!r}; known: "
                + ", ".join(CONSISTENCY_MODES)
            )
        if params.resilience.active:
            raise ValueError(
                "sharded mode does not support the resilience layer; "
                "run without resilience knobs or with --shards omitted"
            )
        if schedule is not None and num_shards > 1:
            raise ValueError(
                "custom broadcast schedules apply to the single-channel "
                "server only; shards derive their order from the partitioner"
            )
        if shard_retention is not None and len(shard_retention) != num_shards:
            raise ValueError(
                f"shard_retention needs one entry per shard "
                f"({num_shards}), got {len(shard_retention)}"
            )
        self.num_shards = num_shards
        self.consistency = consistency
        self.cross_shard_fraction = cross_shard_fraction
        if num_shards > 1 and self.report_schedule.per_cycle != 1:
            raise ValueError(
                "sub-cycle reports are a single-channel extension; "
                "sharded mode requires reports_per_cycle == 1"
            )
        if isinstance(partitioner, Partitioner):
            self.partitioner = partitioner
        else:
            self.partitioner = make_partitioner(
                partitioner, num_shards, params.server.broadcast_size
            )

        # -- shared server substrate ---------------------------------------
        self.database = Database(
            params.server.broadcast_size, keep_history=keep_history
        )

        sharded = num_shards > 1
        self.requirements = requirements = self._adopt_schemes(
            partial(
                MultiShardScheme, scheme_factory, self.partitioner, consistency
            )
            if sharded
            else scheme_factory
        )

        # -- per-shard substrates --------------------------------------------
        shard_items = [
            tuple(self.partitioner.items_of(k)) for k in range(num_shards)
        ]
        for k, items in enumerate(shard_items):
            if not items:
                raise ValueError(
                    f"shard {k} owns no items under the "
                    f"{self.partitioner.name} partitioner; reduce the shard "
                    f"count or grow the item universe"
                )
        txn_counts = self._apportion_workload(shard_items)
        seq_bases = [0, *accumulate(txn_counts)]
        upt = params.server.updates_per_transaction

        self.shards: List[ShardState] = []
        retentions = shard_retention or [params.server.retention] * num_shards
        for k, (items, retention) in enumerate(zip(shard_items, retentions)):
            substrate = build_substrate(
                params.server,
                requirements,
                # A shard whose items carry no update mass commits
                # nothing: no engine, and no draw off the master seed.
                self.seeds.engine_rng() if txn_counts[k] > 0 else None,
                keep_history=keep_history,
                tracer=tracer,
                schedule=ShardSchedule(items) if sharded else schedule,
                database=self.database,
                items=items if sharded else None,
                retention=retention,
                engine_params=replace(
                    params.server,
                    transactions_per_cycle=txn_counts[k],
                    updates_per_cycle=txn_counts[k] * upt,
                ),
            )
            self.shards.append(
                ShardState(
                    index=k,
                    items=items,
                    channel=BroadcastChannel(self.env),
                    builder=substrate.builder,
                    engine=substrate.engine,
                    retention=retention,
                    txn_count=txn_counts[k],
                    seq_base=seq_bases[k],
                    injector=(
                        FaultInjector.for_shard(
                            k, params.faults, params.sim, self.metrics, tracer
                        )
                        if params.faults.active
                        else None
                    ),
                )
            )

        # -- clients ---------------------------------------------------------
        subscribed = sorted(
            {
                self.partitioner.shard_of(item)
                for item in range(1, params.client.read_range + 1)
            }
        )
        shaper_rng: Optional[random.Random] = None
        if cross_shard_fraction is not None and sharded:
            shaper_rng = random.Random(
                (params.sim.seed ^ _SHAPER_SALT) & _MASK
            )
        # The K injectors wrap the K channels here; the seed order only
        # supplies the workload streams.
        for seed, scheme in zip(
            self.seeds.clients(params.sim.num_clients), self.schemes
        ):
            client_id = seed.client_id
            channels: Dict[int, object] = {}
            for k in subscribed:
                shard = self.shards[k]
                channel = shard.channel
                if shard.injector is not None:
                    channel = shard.injector.wrap(
                        shard.channel,
                        client_id,
                        shard.injector.pipeline_for(client_id),
                    )
                channels[k] = channel
            storm = None
            if self.shards[0].injector is not None:
                storm = self.shards[0].injector.disconnections_for(client_id)
            if sharded:
                scheme.bind_channels(channels)
            self.clients.append(
                ShardedClient(
                    env=self.env,
                    channels=channels,
                    primary=subscribed[0],
                    partitioner=self.partitioner,
                    scheme=scheme,
                    params=params.client,
                    metrics=self.metrics,
                    rng=seed.rng,
                    disconnect=storm,
                    client_id=client_id,
                    warmup_cycles=params.sim.warmup_cycles,
                    tracer=tracer,
                    cross_fraction=cross_shard_fraction if sharded else None,
                    shaper_rng=(
                        random.Random(shaper_rng.getrandbits(64))
                        if shaper_rng is not None
                        else None
                    ),
                    keep_history=keep_history,
                )
            )

        # -- the driver -------------------------------------------------------
        if sharded:
            backend: ServerBackend = ShardedBroadcastBackend(
                env=self.env,
                params=params,
                metrics=self.metrics,
                shards=self.shards,
                trace_cycles=self._trace_c,
            )
        else:
            only = self.shards[0]
            backend = self._single_channel_backend(
                only.engine, only.builder, only.channel
            )
        self._launch(backend)

    # -- workload apportionment -------------------------------------------

    def _apportion_workload(self, shard_items) -> List[int]:
        """Per-shard transaction counts.

        Transactions are apportioned by each shard's share of the update
        Zipf mass, so the *aggregate* update workload -- skew included --
        matches the single-channel server's; each transaction keeps the
        global updates-per-transaction size.  Shards with no update mass
        commit nothing (their items are read-only at the server).
        """
        server = self.params.server
        probe = OffsetZipfGenerator(
            n=server.update_range,
            theta=server.theta,
            offset=server.offset,
            universe=server.broadcast_size,
            rng=random.Random(0),
        )
        support = set(probe.support())
        masses = [
            sum(probe.probability(item) for item in items if item in support)
            for items in shard_items
        ]
        return apportion(server.transactions_per_cycle, masses)

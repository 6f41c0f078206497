"""Model parameters for the broadcast-push simulation.

Mirrors the performance model of Section 5.1 (Figure 4) of the paper.  The
available copy of the paper has several values corrupted by OCR; where a
value is unreadable we substitute defaults consistent with the prose and
with the broadcast-disks model of Acharya et al. [1] that the paper bases
its setup on.  Every substituted value is marked below and is swept -- not
hard-wired -- by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class ServerParameters:
    """Knobs describing the server workload (Figure 4, left column)."""

    #: ``D`` -- number of items broadcast each cycle (paper default 1000).
    broadcast_size: int = 1000
    #: ``UpdateRange`` -- updates fall in ``1..update_range`` before the
    #: offset rotation (paper default 500).
    update_range: int = 500
    #: Zipf skew for both reads and updates (paper default 0.95).
    theta: float = 0.95
    #: ``Offset`` between the client-read and server-update patterns
    #: (paper sweeps 0-250, default 100).
    offset: int = 100
    #: ``N`` -- server transactions committed per broadcast cycle
    #: (paper default 10).
    transactions_per_cycle: int = 10
    #: ``U`` -- total updates per cycle (paper sweeps 50-500, default 50).
    updates_per_cycle: int = 50
    #: Server reads per update; the paper fixes "read operations are four
    #: times more frequent than updates".
    reads_per_update: int = 4
    #: ``k`` -- size of the key field in units (paper: 1 unit).
    key_size: int = 1
    #: ``d`` -- size of the other fields in units (paper: 5 * k).
    data_size: int = 5
    #: Items per bucket; the bucket size ``b`` in units is
    #: ``items_per_bucket * (key_size + data_size)``.  [substituted: the
    #: paper's ``b`` row is OCR-corrupted]
    items_per_bucket: int = 10
    #: ``S`` / ``V`` -- how many cycles an overwritten version stays on the
    #: air for the multiversion broadcast method (0 disables).  The paper
    #: defines ``S`` as the maximum transaction span; 16 comfortably covers
    #: the default 16-operation query.  Smaller values model the paper's
    #: ``V``-multiversion server, where longer transactions run at risk.
    retention: int = 16

    @property
    def updates_per_transaction(self) -> int:
        return max(1, self.updates_per_cycle // self.transactions_per_cycle)

    @property
    def item_size(self) -> int:
        """Wire size of one item (key + payload) in units."""
        return self.key_size + self.data_size

    @property
    def bucket_size(self) -> int:
        """``b`` -- bucket payload capacity in units."""
        return self.items_per_bucket * self.item_size

    @property
    def data_buckets(self) -> int:
        """Buckets needed for the (single-version) data segment."""
        return math.ceil(self.broadcast_size / self.items_per_bucket)

    def validate(self) -> None:
        if not 0 < self.update_range <= self.broadcast_size:
            raise ValueError(
                "update_range must be in 1..broadcast_size "
                f"({self.update_range} vs {self.broadcast_size})"
            )
        if self.updates_per_cycle > self.update_range:
            raise ValueError(
                "updates_per_cycle cannot exceed update_range "
                f"({self.updates_per_cycle} vs {self.update_range})"
            )
        if self.offset < 0 or self.offset + self.update_range > 2 * self.broadcast_size:
            raise ValueError(f"offset {self.offset} out of range")
        if self.transactions_per_cycle <= 0:
            raise ValueError("transactions_per_cycle must be positive")


@dataclass(frozen=True)
class ClientParameters:
    """Knobs describing a client (Figure 4, right column)."""

    #: ``ReadRange`` -- client reads items ``1..read_range``.
    #: [substituted: OCR-corrupted; must be <= broadcast_size]
    read_range: int = 250
    #: Number of read operations per query (Figures 5/8 sweep this).
    ops_per_query: int = 16
    #: Zipf skew of the client access pattern (same theta as the server).
    theta: float = 0.95
    #: ``ThinkTime`` -- idle slots between consecutive reads.
    #: [substituted: OCR-corrupted]
    think_time: float = 2.0
    #: ``CacheSize`` in items; 0 disables caching.
    #: [substituted: OCR-corrupted; 125 = broadcast_size / 8]
    cache_size: int = 125
    #: Fraction of the cache reserved for old versions when the
    #: multiversion-caching scheme partitions it (Section 4.2).
    old_version_fraction: float = 0.2
    #: Give up and count a query as failed after this many aborted
    #: attempts (prevents livelock in extreme configurations).
    max_attempts: int = 10
    #: Order a query's reads by broadcast position (the "transaction
    #: optimization" of Section 2.2); off by default to match the
    #: latency expectations quoted with Figure 8.
    sort_reads: bool = False

    def validate(self) -> None:
        if self.read_range <= 0:
            raise ValueError("read_range must be positive")
        if self.ops_per_query <= 0:
            raise ValueError("ops_per_query must be positive")
        if not 0.0 <= self.old_version_fraction < 1.0:
            raise ValueError("old_version_fraction must be in [0, 1)")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")


@dataclass(frozen=True)
class FaultParameters:
    """Air-interface fault injection (no analogue in the paper's model).

    All-zero defaults mean a perfect channel -- the seed behaviour.  Any
    positive knob activates the fault layer (:mod:`repro.faults`), which
    degrades what each *client* receives; the server and its schedule are
    never touched, so the scalability property survives injection.
    """

    #: Independent per-slot bucket loss probability (control slots too).
    slot_loss: float = 0.0
    #: Per-slot probability that a loss burst (fade) starts.
    burst_rate: float = 0.0
    #: Mean length of a loss burst, in slots.
    burst_length: float = 4.0
    #: Probability the control bucket fails its checksum and is dropped.
    control_loss: float = 0.0
    #: Probability a cycle's tail is truncated (never transmitted).
    truncation: float = 0.0
    #: Earliest truncation point, as a fraction of the cycle.
    truncation_min_fraction: float = 0.5
    #: Probability the control segment decodes late.
    report_delay: float = 0.0
    #: Maximum control decode delay, in slots.
    report_max_delay: float = 4.0
    #: Per-cycle probability that a cell-wide disconnect storm starts.
    storm_rate: float = 0.0
    #: Mean storm duration, in cycles.
    storm_length: float = 2.0
    #: Fraction of clients inside a storm's footprint.
    storm_participation: float = 0.8
    #: Fault RNG seed; ``None`` derives one from the simulation seed,
    #: keeping the workload RNG stream untouched either way.
    seed: Optional[int] = None

    @property
    def active(self) -> bool:
        """Does any knob actually inject faults?"""
        return any(
            p > 0
            for p in (
                self.slot_loss,
                self.burst_rate,
                self.control_loss,
                self.truncation,
                self.report_delay,
                self.storm_rate,
            )
        )

    def validate(self) -> None:
        for name in (
            "slot_loss",
            "burst_rate",
            "control_loss",
            "truncation",
            "report_delay",
            "storm_rate",
            "storm_participation",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.truncation_min_fraction < 1.0:
            raise ValueError(
                "truncation_min_fraction must be in [0, 1), got "
                f"{self.truncation_min_fraction}"
            )
        if self.burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1, got {self.burst_length}")
        if self.report_max_delay < 1.0:
            raise ValueError(
                f"report_max_delay must be >= 1, got {self.report_max_delay}"
            )
        if self.storm_length < 1.0:
            raise ValueError(f"storm_length must be >= 1, got {self.storm_length}")


#: Retry policy names accepted by :class:`ResilienceParameters`; the
#: registry lives in :mod:`repro.resilience.policy` (kept in sync there).
RETRY_POLICIES = ("immediate", "backoff", "cause-aware")


@dataclass(frozen=True)
class ResilienceParameters:
    """Client-side recovery policy knobs (see :mod:`repro.resilience`).

    All defaults reproduce the seed behaviour exactly: immediate retries
    up to ``max_attempts``, no deadlines, no watchdog, no checkpointing,
    no crashes, no degradation ladder.  Any non-default knob activates
    the resilience layer, which wires a per-client policy bundle into the
    :class:`~repro.client.machine.BroadcastClient`.
    """

    #: How aborted attempts are retried: ``immediate`` (the seed
    #: behaviour), ``backoff`` (capped exponential backoff in broadcast
    #: cycles), or ``cause-aware`` (reacts per ``AbortReason``).
    retry_policy: str = "immediate"
    #: First backoff delay, in broadcast cycles.
    backoff_base: int = 1
    #: Upper bound on any single backoff delay, in cycles.
    backoff_cap: int = 8
    #: Jitter fraction in [0, 1]: up to ``jitter * delay`` extra cycles,
    #: drawn from the seeded resilience RNG (deterministic per seed).
    backoff_jitter: float = 0.0
    #: Abandon a query once this many cycles passed since it started
    #: (0 disables deadlines).
    deadline_cycles: int = 0
    #: Escalate (flush the cache, step the degradation ladder down) after
    #: this many consecutive aborted attempts (0 disables the watchdog).
    watchdog_attempts: int = 0
    #: Checkpoint the client state (cache + scheme control state) every
    #: this many heard cycles (0 disables checkpointing).
    checkpoint_interval: int = 0
    #: Restarting after an outage of at most this many cycles uses the
    #: incremental catch-up resync when the control window covers the gap;
    #: longer outages always flush-and-rejoin.
    catchup_window: int = 8
    #: Per-cycle probability that this client crashes (loses all
    #: in-memory state) for a multi-cycle outage.
    crash_rate: float = 0.0
    #: Mean crash outage length, in cycles.
    crash_length: float = 2.0
    #: Step the degradation ladder down after this many consecutive
    #: fault-degraded cycles (0 disables the ladder).
    degrade_after: int = 0
    #: Step the ladder back up after this many consecutive clean cycles.
    recover_after: int = 3
    #: Resilience RNG seed (jitter + crash schedules); ``None`` derives
    #: one from the simulation seed without touching the workload stream.
    seed: Optional[int] = None

    @property
    def active(self) -> bool:
        """Does any knob depart from the seed behaviour?"""
        return (
            self.retry_policy != "immediate"
            or self.deadline_cycles > 0
            or self.watchdog_attempts > 0
            or self.checkpoint_interval > 0
            or self.crash_rate > 0
            or self.degrade_after > 0
        )

    def validate(self) -> None:
        if self.retry_policy not in RETRY_POLICIES:
            known = ", ".join(RETRY_POLICIES)
            raise ValueError(
                f"Unknown retry policy {self.retry_policy!r}; known: {known}"
            )
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < max(1, self.backoff_base):
            raise ValueError(
                "backoff_cap must be >= max(1, backoff_base), got "
                f"{self.backoff_cap}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        for name in ("deadline_cycles", "watchdog_attempts", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.catchup_window < 0:
            raise ValueError("catchup_window must be non-negative")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError(f"crash_rate must be in [0, 1], got {self.crash_rate}")
        if self.crash_length < 1.0:
            raise ValueError(f"crash_length must be >= 1, got {self.crash_length}")
        if self.degrade_after < 0:
            raise ValueError("degrade_after must be non-negative")
        if self.recover_after < 1:
            raise ValueError("recover_after must be at least 1")


@dataclass(frozen=True)
class SimulationParameters:
    """Run-control knobs (not part of the paper's model)."""

    #: Broadcast cycles to simulate.
    num_cycles: int = 120
    #: Cycles to discard before measuring (cache warm-up).
    warmup_cycles: int = 10
    #: Concurrent client processes (protocols are client-local, so this
    #: only matters for the scalability experiment).
    num_clients: int = 1
    #: RNG seed for reproducibility.
    seed: int = 42

    def validate(self) -> None:
        if self.num_cycles <= self.warmup_cycles:
            raise ValueError("num_cycles must exceed warmup_cycles")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")


@dataclass(frozen=True)
class ModelParameters:
    """Complete parameterization of one simulation run."""

    server: ServerParameters = field(default_factory=ServerParameters)
    client: ClientParameters = field(default_factory=ClientParameters)
    sim: SimulationParameters = field(default_factory=SimulationParameters)
    faults: FaultParameters = field(default_factory=FaultParameters)
    resilience: ResilienceParameters = field(default_factory=ResilienceParameters)

    def validate(self) -> None:
        self.server.validate()
        self.client.validate()
        self.sim.validate()
        self.faults.validate()
        self.resilience.validate()
        if self.client.read_range > self.server.broadcast_size:
            raise ValueError(
                "client read_range cannot exceed broadcast_size "
                f"({self.client.read_range} vs {self.server.broadcast_size})"
            )

    # -- fluent override helpers used throughout the harness ---------------

    def with_server(self, **kwargs) -> "ModelParameters":
        return replace(self, server=replace(self.server, **kwargs))

    def with_client(self, **kwargs) -> "ModelParameters":
        return replace(self, client=replace(self.client, **kwargs))

    def with_sim(self, **kwargs) -> "ModelParameters":
        return replace(self, sim=replace(self.sim, **kwargs))

    def with_faults(self, **kwargs) -> "ModelParameters":
        return replace(self, faults=replace(self.faults, **kwargs))

    def with_resilience(self, **kwargs) -> "ModelParameters":
        return replace(self, resilience=replace(self.resilience, **kwargs))


DEFAULTS = ModelParameters()

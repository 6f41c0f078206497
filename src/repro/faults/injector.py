"""Simulation-level wiring of the fault subsystem.

One :class:`FaultInjector` per simulation owns the fault RNG tree: a
master seed (``FaultParameters.seed``, or derived from the simulation
seed) feeds the shared storm schedule and one independent sub-seed per
client, so

* the same parameters and seed reproduce the exact same fault pattern
  (the determinism regression test pins this down), and
* the workload RNG stream (client queries, server updates) is untouched:
  a faulty run and its fault-free twin process *identical* workloads,
  which is what makes abort-vs-loss curves differential rather than
  noise.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.broadcast.channel import BroadcastChannel
from repro.client.disconnect import DisconnectionModel
from repro.config import FaultParameters, SimulationParameters
from repro.faults.channel import FaultyChannel
from repro.faults.models import (
    FaultModel,
    StormDisconnections,
    build_pipeline,
    compute_storm_windows,
)
from repro.obs.trace import Tracer
from repro.stats.metrics import MetricsRegistry

#: Offset mixed into the simulation seed when no explicit fault seed is
#: given, so fault randomness never collides with the workload stream.
_SEED_SALT = 0x5EED_FA17
#: Knuth's 64-bit multiplicative constant, for per-shard fault seeds.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _fault_seed(faults: FaultParameters, sim: SimulationParameters) -> int:
    return faults.seed if faults.seed is not None else sim.seed ^ _SEED_SALT


class FaultInjector:
    """Builds per-client faulty channels and storm disconnection models."""

    def __init__(
        self,
        faults: FaultParameters,
        sim: SimulationParameters,
        metrics: MetricsRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.faults = faults
        self.metrics = metrics
        self.tracer = tracer
        self._rng = random.Random(_fault_seed(faults, sim))
        self.storm_windows: List = []
        if faults.storm_rate > 0:
            self.storm_windows = compute_storm_windows(
                random.Random(self._rng.getrandbits(64)),
                sim.num_cycles,
                faults.storm_rate,
                faults.storm_length,
            )

    @classmethod
    def for_shard(
        cls,
        index: int,
        faults: FaultParameters,
        sim: SimulationParameters,
        metrics: MetricsRegistry,
        tracer: Optional[Tracer] = None,
    ) -> "FaultInjector":
        """Shard ``index``'s injector: shard 0 keeps the run's fault seed
        (so K=1 equals the single-channel run), every other shard gets a
        seed mixed with its index so the K channels fade independently."""
        if index > 0:
            seed = (_fault_seed(faults, sim) ^ (_MIX * index)) & _MASK
            faults = replace(faults, seed=seed)
        return cls(faults, sim, metrics, tracer=tracer)

    def pipeline_for(self, client_id: int):
        """This client's seeded fault-model pipeline.

        Consumes exactly one draw from the injector RNG, whichever
        channel flavour it ends up behind, so cohort-mode and live
        clients see the same fault streams as discrete ones.
        """
        return build_pipeline(
            self.faults, random.Random(self._rng.getrandbits(64))
        )

    def wrap(
        self,
        channel: BroadcastChannel,
        client_id: int,
        pipeline: Sequence[FaultModel],
    ) -> FaultyChannel:
        """A lossy view of ``channel`` for one client, through the
        ``pipeline`` :meth:`pipeline_for` drew for it."""
        return FaultyChannel(
            channel,
            pipeline,
            self.metrics,
            client_id=client_id,
            tracer=self.tracer,
        )

    def disconnections_for(self, client_id: int) -> Optional[DisconnectionModel]:
        """This client's share of the storm schedule (``None`` if no
        storms are configured)."""
        if not self.storm_windows:
            return None
        return StormDisconnections(
            self.storm_windows,
            self.faults.storm_participation,
            random.Random(self._rng.getrandbits(64)),
            metrics=self.metrics,
        )

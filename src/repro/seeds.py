"""The master-seed draw order, stated once (DESIGN §16).

Every run derives its workload streams from ``SimulationParameters.seed``
in one order -- the engine RNG (the sharded server: one per shard that
commits, in shard order), then per client in id order the disconnect
factory's RNG (only when a factory is given) and the workload RNG -- so
the kernel, the cohort replay, the K=1 sharded server and a live
loopback run share every random stream.  Fault and resilience streams
come off their own seed trees and never perturb this one.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from repro.client.disconnect import DisconnectionModel, UnionDisconnections
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel


DisconnectFactory = Callable[[random.Random], DisconnectionModel]


class ClientSeed(NamedTuple):
    """Everything seeded that one client is assembled from."""

    client_id: int
    #: The factory's model, the fault storm's share, or their union.
    disconnect: Optional[DisconnectionModel]
    #: The client's fault-model pipeline (``None`` without an injector).
    pipeline: Optional[Sequence[FaultModel]]
    #: The query workload stream.
    rng: random.Random


class SeedOrder:
    """One run's master RNG; call in the order the module docstring gives."""

    def __init__(self, seed: int) -> None:
        self._master = random.Random(seed)

    def _draw(self) -> random.Random:
        return random.Random(self._master.getrandbits(64))

    def engine_rng(self) -> random.Random:
        return self._draw()

    def clients(
        self,
        count: int,
        disconnect_factory: Optional[DisconnectFactory] = None,
        injector: Optional[FaultInjector] = None,
    ) -> Iterator[ClientSeed]:
        """Clients ``0 .. count-1``, drawn lazily as they are consumed
        (a cohort run holds one chunk of a large population at a time)."""
        for client_id in range(count):
            disconnect = None
            if disconnect_factory is not None:
                disconnect = disconnect_factory(self._draw())
            pipeline = None
            if injector is not None:
                pipeline = injector.pipeline_for(client_id)
                storm = injector.disconnections_for(client_id)
                if storm is not None:
                    disconnect = (
                        storm
                        if disconnect is None
                        else UnionDisconnections([disconnect, storm])
                    )
            yield ClientSeed(client_id, disconnect, pipeline, self._draw())


def listener_rng(seed: int, client_id: int) -> random.Random:
    """Workload RNG of client ``client_id`` in a run with no disconnect
    factory: what a lone listener needs to be its DES twin's client."""
    order = SeedOrder(seed)
    order.engine_rng()
    *_, last = order.clients(client_id + 1)
    return last.rng

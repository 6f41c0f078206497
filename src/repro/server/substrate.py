"""The one place a server substrate is built (DESIGN §16).

``Database -> item-state store -> TransactionEngine -> ProgramBuilder``
is the same chain whoever drives it, so it is wired here and nowhere
else.  This function alone knows the two rules that fit the commit path
to its audience.  Old versions: the engine sees the item store as its
``version_store`` iff the merged requirements ask for old versions;
otherwise the store still exists (its current-value columns feed record
assembly) but retains nothing.  Conflicts: the engine tracks them iff
the requirements air an SG diff or the oracle's history is kept;
otherwise its outcomes carry ``diff=None``, which an SGT builder
refuses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.broadcast.schedule import Schedule
from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements
from repro.obs.trace import Tracer
from repro.server.broadcast import ProgramBuilder
from repro.server.columnar import ColumnarVersionStore
from repro.server.database import Database
from repro.server.transactions import TransactionEngine


@dataclass
class ServerSubstrate:
    """One server's (or one shard's) state, engine and builder."""

    database: Database
    item_state: ColumnarVersionStore
    #: ``item_state`` when old versions go on the air, else ``None``.
    version_store: Optional[ColumnarVersionStore]
    #: ``None`` for a shard that commits nothing (built without an RNG).
    engine: Optional[TransactionEngine]
    builder: ProgramBuilder


def build_substrate(
    server: ServerParameters,
    requirements: BroadcastRequirements,
    rng: Optional[random.Random],
    *,
    keep_history: bool = False,
    interleaved: bool = False,
    tracer: Optional[Tracer] = None,
    schedule: Optional[Schedule] = None,
    database: Optional[Database] = None,
    items: Optional[Sequence[int]] = None,
    retention: Optional[int] = None,
    engine_params: Optional[ServerParameters] = None,
) -> ServerSubstrate:
    """Wire one substrate off ``server`` and the merged ``requirements``.

    ``rng`` is the engine's stream (see :mod:`repro.seeds`); ``None``
    builds no engine.  The remaining arguments are what a shard differs
    in: a ``database`` shared with its siblings, the ``items`` it owns
    (the store keeps columns for, and the engine draws from, only
    those), its own ``retention`` and ``schedule``, and ``engine_params``
    carrying its apportioned share of the update workload.
    """
    if database is None:
        database = Database(server.broadcast_size, keep_history=keep_history)
    if retention is None:
        retention = server.retention
    old_versions = requirements.needs_old_versions
    item_state = ColumnarVersionStore(
        database, retention=retention if old_versions else 0, items=items
    )
    version_store = item_state if old_versions else None
    engine = None
    if rng is not None:
        engine = TransactionEngine(
            engine_params or server,
            database,
            version_store=version_store,
            rng=rng,
            keep_history=keep_history,
            interleaved=interleaved,
            restrict_items=frozenset(items) if items is not None else None,
            track_conflicts=requirements.needs_sgt or keep_history,
        )
    builder = ProgramBuilder(
        server,
        item_state,
        schedule=schedule,
        requirements=requirements,
        tracer=tracer,
    )
    return ServerSubstrate(database, item_state, version_store, engine, builder)

"""Broadcast-server substrate.

Everything the paper assumes exists on the stationary server side:

* :class:`~repro.server.database.Database` -- the versioned store whose
  content is broadcast each cycle, with consistent per-cycle snapshots.
* :class:`~repro.server.columnar.ColumnarVersionStore` -- the item state:
  every item's current value in dense columns, and the last ``S``
  versions per item for the multiversion broadcast method (§3.2).
* :class:`~repro.server.transactions.TransactionEngine` -- the update
  workload: ``N`` strict-2PL transactions per cycle with Zipf access,
  reads four times as frequent as updates, producing the conflict edges,
  first-writer and last-writer bookkeeping the SGT method broadcasts.
* :class:`~repro.server.broadcast.ProgramBuilder` -- assembles each
  cycle's :class:`~repro.broadcast.program.BroadcastProgram` (control
  information segment, data buckets, overflow buckets).
* :mod:`repro.server.sizing` -- the closed-form broadcast-size formulas of
  Sections 3.1-3.3 (Figure 7).
"""

from repro.server.database import Database, Version
from repro.server.columnar import ColumnarVersionStore
from repro.server.transactions import CycleOutcome, ServerTransaction, TransactionEngine
from repro.server.broadcast import ProgramBuilder

__all__ = [
    "ColumnarVersionStore",
    "CycleOutcome",
    "Database",
    "ProgramBuilder",
    "ServerTransaction",
    "TransactionEngine",
    "Version",
]

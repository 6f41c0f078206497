"""Serialization graphs and serializability oracles.

Provides the directed-graph machinery of the paper's Section 3.3:

* :class:`~repro.graph.sgraph.SerializationGraph` -- a directed graph over
  transaction identifiers with incremental cycle detection (a read is
  accepted only if adding its dependency edge closes no cycle), per-cycle
  subgraph tagging (``SG^i`` in the paper), and Lemma-1 pruning.
* :class:`~repro.graph.history.History` -- a recorded schedule of read /
  write operations from which the *full* conflict serialization graph can
  be rebuilt.  Used as the correctness oracle in tests: the incremental
  client-side graph must agree with the graph rebuilt from first
  principles (Claims 2 and 3).
"""

from repro.graph.history import History, Operation, OpType
from repro.graph.sgraph import GraphDiff, SerializationGraph, TxnId

__all__ = [
    "GraphDiff",
    "History",
    "Operation",
    "OpType",
    "SerializationGraph",
    "TxnId",
]

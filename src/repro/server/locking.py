"""Strict two-phase locking: lock table, waits-for graph, deadlocks.

The paper assumes nothing about server concurrency control beyond "a
more practical method, e.g., most probably two-phase locking, may be
employed" (Section 3.3).  The default engine executes transactions in
commit order (every strict-2PL history is conflict-equivalent to one);
this module provides the *actual* mechanism so that the interleaved
engine mode can execute genuinely concurrent server transactions:

* :class:`LockManager` -- shared/exclusive locks per item, FIFO wait
  queues with the standard compatibility matrix, lock upgrades;
* deadlock detection via an explicit waits-for graph (a victim is chosen
  and its requests cancelled);
* strictness: all locks are held until commit/abort, which is what makes
  Claim 1 (no edges into earlier cycles) hold for the histories we put
  on the air.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.sgraph import SerializationGraph

Txn = Hashable


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockOutcome(enum.Enum):
    """Result of a lock request."""

    GRANTED = "granted"
    #: Must wait; the request is queued.
    BLOCKED = "blocked"
    #: Granting would deadlock and the requester was chosen as victim.
    DEADLOCK = "deadlock"


@dataclass
class _LockRequest:
    txn: Txn
    mode: LockMode


@dataclass
class _ItemLock:
    """Lock state of one item: current holders plus a FIFO wait queue."""

    holders: Dict[Txn, LockMode] = field(default_factory=dict)
    queue: Deque[_LockRequest] = field(default_factory=deque)

    @property
    def mode(self) -> Optional[LockMode]:
        if not self.holders:
            return None
        if any(m is LockMode.EXCLUSIVE for m in self.holders.values()):
            return LockMode.EXCLUSIVE
        return LockMode.SHARED


class LockManager:
    """A strict 2PL lock table with waits-for deadlock detection.

    Locks are requested with :meth:`acquire` (returning a
    :class:`LockOutcome`) and only ever released in bulk by
    :meth:`release_all` at transaction end -- strictness is enforced by
    construction, there is no per-item unlock.
    """

    def __init__(self) -> None:
        self._items: Dict[int, _ItemLock] = {}
        #: edges waiter -> holder (the waits-for graph).
        self._waits_for = SerializationGraph()
        #: items each transaction holds or awaits, for cleanup.
        self._touched: Dict[Txn, Set[int]] = {}

    # -- introspection -----------------------------------------------------

    def holders_of(self, item: int) -> Dict[Txn, LockMode]:
        lock = self._items.get(item)
        return dict(lock.holders) if lock else {}

    def waiters_of(self, item: int) -> List[Txn]:
        lock = self._items.get(item)
        return [req.txn for req in lock.queue] if lock else []

    def holds(self, txn: Txn, item: int, mode: Optional[LockMode] = None) -> bool:
        lock = self._items.get(item)
        if lock is None or txn not in lock.holders:
            return False
        if mode is None:
            return True
        held = lock.holders[txn]
        return held is mode or held is LockMode.EXCLUSIVE

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txn: Txn, item: int, mode: LockMode) -> LockOutcome:
        """Request ``mode`` on ``item`` for ``txn``.

        Returns GRANTED / BLOCKED / DEADLOCK.  A blocked request stays in
        the item's FIFO queue; the caller retries via :meth:`granted`
        after other transactions release (the engine drives this loop).
        """
        lock = self._items.setdefault(item, _ItemLock())
        self._touched.setdefault(txn, set()).add(item)

        held = lock.holders.get(txn)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return LockOutcome.GRANTED
            # Upgrade S -> X: possible only as the sole holder.
            if len(lock.holders) == 1 and not lock.queue:
                lock.holders[txn] = LockMode.EXCLUSIVE
                return LockOutcome.GRANTED
            return self._block(txn, lock, mode)

        if self._grantable(lock, mode):
            lock.holders[txn] = mode
            return LockOutcome.GRANTED
        return self._block(txn, lock, mode)

    def _grantable(self, lock: _ItemLock, mode: LockMode) -> bool:
        if lock.queue:
            # FIFO fairness: no overtaking queued requests.
            return False
        current = lock.mode
        return current is None or (
            mode.compatible_with(current) and current.compatible_with(mode)
        )

    def _block(self, txn: Txn, lock: _ItemLock, mode: LockMode) -> LockOutcome:
        # The requester waits on every incompatible holder AND on every
        # already-queued request (FIFO: they all precede it).  Missing the
        # queue edges would hide queue-based wait cycles from the
        # detector and stall the whole schedule.
        predecessors = [
            holder
            for holder, held in lock.holders.items()
            if holder != txn and not mode.compatible_with(held)
        ] + [req.txn for req in lock.queue if req.txn != txn]
        for predecessor in predecessors:
            if self._waits_for.would_close_cycle(txn, predecessor):
                # Granting the wait would deadlock: txn is the victim.
                self._cancel_waits(txn)
                return LockOutcome.DEADLOCK
        for predecessor in predecessors:
            if not self._waits_for.has_edge(txn, predecessor):
                self._waits_for.add_edge(txn, predecessor)
        if not any(req.txn == txn for req in lock.queue):
            lock.queue.append(_LockRequest(txn=txn, mode=mode))
        return LockOutcome.BLOCKED

    # -- release and queue advancement ------------------------------------------

    def release_all(self, txn: Txn) -> List[Tuple[Txn, int]]:
        """Drop every lock and queued request of ``txn`` (commit/abort).

        Returns the ``(transaction, item)`` pairs newly granted from the
        wait queues, so the engine can resume them.
        """
        granted: List[Tuple[Txn, int]] = []
        for item in self._touched.pop(txn, set()):
            lock = self._items.get(item)
            if lock is None:
                continue
            lock.holders.pop(txn, None)
            lock.queue = deque(req for req in lock.queue if req.txn != txn)
            granted.extend(
                (advanced, item) for advanced in self._advance(item, lock)
            )
            if not lock.holders and not lock.queue:
                del self._items[item]
        self._cancel_waits(txn)
        self._waits_for.remove_node(txn)
        return granted

    def _advance(self, item: int, lock: _ItemLock) -> List[Txn]:
        """Grant queued requests now compatible (FIFO order)."""
        woken: List[Txn] = []
        while lock.queue:
            head = lock.queue[0]
            current = lock.mode
            compatible = current is None or (
                head.mode.compatible_with(current)
                and current.compatible_with(head.mode)
            )
            upgrade = (
                head.txn in lock.holders
                and len(lock.holders) == 1
            )
            if compatible or upgrade:
                lock.queue.popleft()
                lock.holders[head.txn] = (
                    LockMode.EXCLUSIVE
                    if upgrade and head.mode is LockMode.EXCLUSIVE
                    else head.mode
                )
                self._clear_wait_edges(head.txn)
                woken.append(head.txn)
            else:
                break
        return woken

    def _cancel_waits(self, txn: Txn) -> None:
        """Remove txn's queued requests and outgoing waits-for edges."""
        for item in self._touched.get(txn, set()):
            lock = self._items.get(item)
            if lock is not None:
                lock.queue = deque(req for req in lock.queue if req.txn != txn)
        self._clear_wait_edges(txn)

    def _clear_wait_edges(self, txn: Txn) -> None:
        if txn in self._waits_for:
            for holder in self._waits_for.successors(txn):
                # Removing and re-adding the node clears only outgoing
                # edges; incoming (others waiting on txn) must survive.
                pass
            # Rebuild: drop outgoing edges of txn.
            incoming = self._waits_for.predecessors(txn)
            self._waits_for.remove_node(txn)
            for waiter in incoming:
                self._waits_for.add_edge(waiter, txn)

    # -- invariants (used by tests) ------------------------------------------------

    def assert_consistent(self) -> None:
        """Internal invariants: compatible co-holders, acyclic waits-for."""
        for item, lock in self._items.items():
            modes = list(lock.holders.values())
            if len(modes) > 1:
                assert all(m is LockMode.SHARED for m in modes), (
                    f"incompatible holders on item {item}"
                )
        assert not self._waits_for.has_cycle(), "waits-for graph has a cycle"

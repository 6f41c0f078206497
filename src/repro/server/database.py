"""The server's versioned database.

The paper's model (Section 2.2): a database is a finite set of items; the
values broadcast during cycle ``c`` correspond to the state at the
*beginning* of ``c`` -- i.e. the values produced by all transactions
committed before the cycle started.  We realize this by stamping each
write with the broadcast cycle at whose beginning it becomes visible, and
by answering snapshot queries "value of item ``x`` as of cycle ``c``".

Values are opaque integers here (a write counter), which is all the
consistency protocols ever compare; the sizing model accounts for the
``d`` payload units separately.

Unless history is kept, a chain stops at the *build horizon*: the oldest
cycle the server can still build a program for.  A program for cycle
``c`` is built only after every commit visible at ``c`` (DESIGN §17), so
once a write visible at ``L`` has landed, the server is in cycle
``L - 1`` and never builds an earlier cycle again: of the versions
visible at or before ``L - 1``, only the last can still be asked for.  The old-version area of the broadcast
holds its own references (:mod:`repro.server.columnar`), so trimming a
chain never takes a version off the air.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.graph.sgraph import TxnId

#: Sort key for :meth:`Database.value_at`'s binary search.
_version_cycle = attrgetter("cycle")


class TrimmedHistoryError(ValueError):
    """A question only the full version history can answer, asked of a
    :class:`Database` that keeps its chains trimmed to the build
    horizon.  Build the run with ``keep_history=True`` to ask it."""


class Version(NamedTuple):
    """One committed value of one item.

    Attributes
    ----------
    item:
        The item (key) this value belongs to.
    cycle:
        The broadcast cycle at whose beginning this value became current
        (commit cycle + 1): the paper's "version number".
    value:
        Opaque payload; monotonically increasing per item in this model.
    writer:
        The server transaction that produced the value (``None`` for the
        initial load), needed by the SGT method's last-writer tags.
    """

    item: int
    cycle: int
    value: int
    writer: Optional[TxnId]


class Database:
    """Versioned key-value store over items ``1 .. size``.

    With ``keep_history`` (the default, and what every verified run
    sets) the full version chain of every item is kept, so that a test
    can check any protocol's readset against the exact historical
    snapshot it claims to represent.

    Without it, the store keeps only what the server can still air: when
    the newest visibility stamp moves to ``L``, every chain drops the
    versions that a newer one hides at the horizon ``L - 1``.  The
    chains then hold ``D`` versions plus the writes visible at ``L``, so
    memory stays flat however long the run.  A question the trimmed
    chains cannot answer exactly raises :class:`TrimmedHistoryError`:
    :meth:`value_at` below the horizon, and :meth:`chain_of`,
    :meth:`snapshot` and :meth:`was_updated_between` at all.
    """

    def __init__(self, size: int, keep_history: bool = True) -> None:
        if size <= 0:
            raise ValueError(f"Database size must be positive, got {size}")
        self._size = size
        self._keep_history = keep_history
        #: item -> list of versions in increasing cycle order.
        self._chains: Dict[int, List[Version]] = {
            item: [Version(item, 0, 0, None)] for item in range(1, size + 1)
        }
        #: Newest visibility stamp written so far.
        self._latest = 0
        #: Oldest cycle :meth:`value_at` answers (trimmed chains only).
        self._horizon = 0
        #: Chains grown past one version since the stamp last moved: the
        #: ones to trim when it moves again.
        self._grown: List[List[Version]] = []
        #: Write observers (item stores keeping current-value columns in
        #: sync); see :meth:`add_observer`.
        self._observers: List[object] = []

    def add_observer(self, observer: object) -> None:
        """Register ``observer.note_write(version)`` to run on every write.

        This is how the array-backed item store stays coherent without
        the transaction engine knowing about it -- any write, including
        ones tests make directly, reaches every attached store.
        """
        self._observers.append(observer)

    def remove_observer(self, observer: object) -> None:
        """Stop running ``observer.note_write`` on writes (a store that
        holds this database detaches when its run is over); a no-op for
        an observer that was never added."""
        if observer in self._observers:
            self._observers.remove(observer)

    @property
    def size(self) -> int:
        return self._size

    @property
    def keep_history(self) -> bool:
        return self._keep_history

    @property
    def horizon(self) -> int:
        """Oldest cycle :meth:`value_at` answers: ``0`` under
        ``keep_history``, else one cycle before the newest stamp."""
        return self._horizon

    @property
    def versions_held(self) -> int:
        """Versions in all chains: ``D`` plus, when trimmed, the writes
        stamped after the horizon, or under history every write made."""
        return sum(map(len, self._chains.values()))

    def items(self) -> Iterable[int]:
        return range(1, self._size + 1)

    def _chain(self, item: int) -> List[Version]:
        chain = self._chains.get(item)
        if chain is None:
            raise KeyError(f"Item {item} outside database range 1..{self._size}")
        return chain

    def _require_history(self, what: str) -> None:
        if not self._keep_history:
            raise TrimmedHistoryError(
                f"{what} needs the full version history, but this database "
                f"keeps only versions from the build horizon (cycle "
                f"{self._horizon}) on; build the run with keep_history=True"
            )

    # -- writes -----------------------------------------------------------

    def write(self, item: int, visible_cycle: int, writer: TxnId) -> Version:
        """Record a committed write becoming visible at ``visible_cycle``.

        Several transactions may write the same item during one cycle; each
        write appends a version with the same ``cycle`` stamp, and the last
        one is the value actually broadcast.  Monotonicity of the stamp is
        enforced.
        """
        chain = self._chain(item)
        last = chain[-1]
        if visible_cycle < last.cycle:
            raise ValueError(
                f"Write to item {item} at cycle {visible_cycle} is older than "
                f"latest version (cycle {last.cycle})"
            )
        if visible_cycle > self._latest and not self._keep_history:
            self._advance(visible_cycle)
        version = Version(item, visible_cycle, last.value + 1, writer)
        chain.append(version)
        if len(chain) == 2 and not self._keep_history:
            self._grown.append(chain)
        for observer in self._observers:
            observer.note_write(version)
        return version

    def _advance(self, stamp: int) -> None:
        """Move the newest stamp to ``stamp`` and trim to the new horizon.

        Every version present is visible at or before the old stamp,
        which is at most ``stamp - 1``, the new horizon: of each grown
        chain only its last version can still be asked for.
        """
        for chain in self._grown:
            del chain[:-1]
        self._grown.clear()
        self._latest = stamp
        self._horizon = stamp - 1

    # -- reads ------------------------------------------------------------

    def current(self, item: int) -> Version:
        """Latest committed version of ``item``."""
        return self._chain(item)[-1]

    def value_at(self, item: int, cycle: int) -> Version:
        """The version of ``item`` in the state broadcast at ``cycle``.

        That is: the last version whose visibility stamp is ``<= cycle``.
        Chains are in increasing cycle order, so a binary search finds it;
        this is on the program builder's per-cycle hot path.  Below the
        horizon of a trimmed database it raises rather than guess.
        """
        chain = self._chain(item)
        index = bisect_right(chain, cycle, key=_version_cycle) - 1
        if index < 0 or cycle < self._horizon:
            if cycle < 0 or self._keep_history:
                raise ValueError(
                    f"Item {item} has no version visible at or before "
                    f"cycle {cycle}"
                )
            raise TrimmedHistoryError(
                f"Item {item} at cycle {cycle}: this database keeps only "
                f"versions from the build horizon (cycle {self._horizon}) "
                f"on; build the run with keep_history=True to look further "
                f"back"
            )
        return chain[index]

    def snapshot(self, cycle: int) -> Dict[int, Version]:
        """The full consistent state ``DS^cycle`` (what cycle ``c`` airs)."""
        self._require_history("snapshot")
        return {item: self.value_at(item, cycle) for item in self.items()}

    def chain_of(self, item: int) -> List[Version]:
        """Full version history of ``item`` (oldest first) -- for oracles."""
        self._require_history("chain_of")
        return list(self._chain(item))

    def was_updated_between(self, item: int, first: int, last: int) -> bool:
        """Did any version of ``item`` become visible in ``[first, last]``?"""
        self._require_history("was_updated_between")
        # A full chain starts with the initial load, which is no update.
        return any(first <= v.cycle <= last for v in self._chain(item)[1:])

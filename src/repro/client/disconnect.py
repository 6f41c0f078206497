"""Intermittent-connectivity models (Section 5.2.2).

Wireless clients miss broadcast cycles: batteries, money, and fading all
argue against continuous listening.  A disconnection model decides, for
each broadcast cycle, whether the client hears it.  The client machine
consults the model at every cycle start; a missed cycle means neither the
control information nor any data of that cycle reach the client, and the
scheme's :meth:`~repro.core.base.Scheme.on_missed_cycle` hook fires
instead.
"""

from __future__ import annotations

import random
from typing import Optional


class DisconnectionModel:
    """Base: decides per-cycle whether the client is listening."""

    def is_listening(self, cycle: int) -> bool:
        raise NotImplementedError


class NeverDisconnected(DisconnectionModel):
    """The wired/base case: the client hears every cycle."""

    def is_listening(self, cycle: int) -> bool:
        return True


class RandomDisconnections(DisconnectionModel):
    """Geometric disconnection windows.

    Each listening cycle, the client disconnects with probability
    ``p_disconnect`` for a window of ``1 + Geometric(p_reconnect)`` cycles
    -- short fades are common, long outages rare, which matches the
    wireless setting the paper argues about.
    """

    def __init__(
        self,
        p_disconnect: float,
        mean_outage_cycles: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= p_disconnect <= 1.0:
            raise ValueError(f"p_disconnect must be in [0, 1], got {p_disconnect}")
        if mean_outage_cycles < 1.0:
            raise ValueError("mean_outage_cycles must be at least 1")
        self.p_disconnect = p_disconnect
        self.mean_outage_cycles = mean_outage_cycles
        self._rng = rng if rng is not None else random.Random()
        self._deaf_until: Optional[int] = None

    def is_listening(self, cycle: int) -> bool:
        if self._deaf_until is not None:
            if cycle < self._deaf_until:
                return False
            self._deaf_until = None
        if self._rng.random() < self.p_disconnect:
            # Window length >= 1, geometric tail around the mean.
            length = 1
            p_stop = 1.0 / self.mean_outage_cycles
            while self._rng.random() > p_stop:
                length += 1
            self._deaf_until = cycle + length
            return False
        return True


class UnionDisconnections(DisconnectionModel):
    """Deaf whenever *any* member model is deaf.

    Composes independent outage causes -- e.g. a client's own battery
    behaviour (:class:`RandomDisconnections`) with a cell-wide disconnect
    storm from the fault layer.  Every member is consulted every cycle
    (no short-circuiting) so each model's RNG stream advances identically
    regardless of what the others decide.
    """

    def __init__(self, models) -> None:
        self.models = [model for model in models if model is not None]

    def is_listening(self, cycle: int) -> bool:
        return all([model.is_listening(cycle) for model in self.models])

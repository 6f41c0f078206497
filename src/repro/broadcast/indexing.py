"""(1, m) index broadcasting and selective tuning.

Section 2.1 of the paper: clients with battery constraints must not
listen continuously; either they hold a directory, or "the broadcast can
be self-descriptive, in that some form of directory information is
broadcasted along with data", citing the air-indexing work of Imielinski
et al. [14].  This module implements the classic **(1, m) indexing**
scheme from that line of work, which the multiversion *clustered*
organization needs (item positions shift every cycle, so a local
directory goes stale):

* the index is a B+-tree over ``item -> data bucket``, fanout ``f``;
* the full index is broadcast ``m`` times per cycle, a copy in front of
  each of ``m`` equal data segments;
* every bucket header carries the offset to the next index copy, so a
  client that tunes in mid-stream dozes until the next index, probes
  ``1 + height`` index buckets while descending, then dozes again until
  the target data bucket.

Two cost measures (in buckets):

* **access time** -- how long until the item is delivered (latency);
* **tuning time** -- how many buckets the client actually listened to
  (energy); the whole point of air indexing is to trade a little access
  time for a lot of tuning time.

The classic results reproduce directly from the model: without an index
tuning time is half the broadcast; with (1, m) it drops to
``~2 + height``; the access-optimal replication is ``m* = sqrt(D / i)``
where ``i`` is the index size in buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class TuningCost:
    """Cost of locating one item, in bucket slots."""

    access_time: float
    tuning_time: int


class OneMIndex:
    """The (1, m) air-index layout over a flat data segment.

    Parameters
    ----------
    data_buckets:
        Number of data buckets per cycle (``D / items_per_bucket``).
    items_per_bucket:
        Data items per bucket (defines the key -> bucket mapping).
    fanout:
        B+-tree fanout (keys per index bucket).
    replication:
        ``m`` -- how many times the index is broadcast per cycle.
    """

    def __init__(
        self,
        data_buckets: int,
        items_per_bucket: int,
        fanout: int = 8,
        replication: int = 1,
    ) -> None:
        if data_buckets <= 0:
            raise ValueError("data_buckets must be positive")
        if items_per_bucket <= 0:
            raise ValueError("items_per_bucket must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if replication < 1:
            raise ValueError("replication (m) must be at least 1")
        self.data_buckets = data_buckets
        self.items_per_bucket = items_per_bucket
        self.fanout = fanout
        self.replication = replication

    # -- index geometry ------------------------------------------------------

    @property
    def height(self) -> int:
        """Levels of the index tree above the leaves (>= 0)."""
        return max(0, math.ceil(math.log(self.data_buckets, self.fanout)) - 1)

    @property
    def index_buckets(self) -> int:
        """Buckets one full index copy occupies."""
        total = 0
        level = self.data_buckets
        while level > 1:
            level = math.ceil(level / self.fanout)
            total += level
        return max(1, total)

    @property
    def probes(self) -> int:
        """Index buckets a client listens to while descending (root to
        leaf, inclusive)."""
        probes = 0
        level = self.data_buckets
        while level > 1:
            level = math.ceil(level / self.fanout)
            probes += 1
        return max(1, probes)

    @property
    def cycle_length(self) -> int:
        """Total buckets per broadcast cycle (data + m index copies)."""
        return self.data_buckets + self.replication * self.index_buckets

    @property
    def segment_data(self) -> int:
        """Data buckets between consecutive index copies."""
        return math.ceil(self.data_buckets / self.replication)

    def data_bucket_of(self, item: int) -> int:
        """Which data bucket (0-based, in key order) carries ``item``."""
        if item < 1:
            raise ValueError(f"Item numbers start at 1, got {item}")
        bucket = (item - 1) // self.items_per_bucket
        if bucket >= self.data_buckets:
            raise ValueError(f"Item {item} is outside the broadcast")
        return bucket

    def slot_of_data_bucket(self, bucket: int) -> int:
        """Cycle-relative slot of data bucket ``bucket`` in the (1, m)
        layout ``[index][seg][index][seg]...``."""
        segment, offset = divmod(bucket, self.segment_data)
        return (segment + 1) * self.index_buckets + segment * self.segment_data + offset

    def next_index_slot(self, slot: float) -> int:
        """First slot of the next index copy at or after ``slot`` (may lie
        in the next cycle, returned as an absolute offset >= slot)."""
        period = self.index_buckets + self.segment_data
        k = math.ceil(slot / period)
        while True:
            candidate = k * period
            segment_start = candidate
            if segment_start >= slot:
                return segment_start
            k += 1

    # -- costs -----------------------------------------------------------------

    def locate(self, item: int, arrival_slot: float) -> TuningCost:
        """Cost of reading ``item`` when tuning in at ``arrival_slot``
        (cycle-relative, may be fractional).

        Protocol: one initial probe (learn the offset to the next index
        copy from any bucket header), doze to the index, descend
        (``probes`` tuned buckets), doze to the data bucket, read it.
        """
        index_slot = self.next_index_slot(arrival_slot)
        data_slot = self.slot_of_data_bucket(self.data_bucket_of(item))
        # Unroll into the next cycle if the item's copy precedes the index
        # we just used.
        while data_slot < index_slot + self.probes:
            data_slot += self.cycle_length
        access = (data_slot + 1) - arrival_slot
        tuning = 1 + self.probes + 1  # initial probe + descent + data bucket
        return TuningCost(access_time=access, tuning_time=tuning)

    def mean_costs(self, samples: int = 200) -> Tuple[float, float]:
        """Mean (access, tuning) over arrival phases and items."""
        total_access = 0.0
        total_tuning = 0
        count = 0
        items = range(1, self.data_buckets * self.items_per_bucket + 1,
                      max(1, self.items_per_bucket // 2))
        for k in range(samples):
            arrival = k * self.cycle_length / samples
            for item in items:
                cost = self.locate(item, arrival)
                total_access += cost.access_time
                total_tuning += cost.tuning_time
                count += 1
        return (total_access / count, total_tuning / count)

    @staticmethod
    def optimal_replication(data_buckets: int, index_buckets: int) -> int:
        """The access-optimal ``m* = sqrt(D / i)`` of Imielinski et al."""
        if index_buckets <= 0:
            return 1
        return max(1, round(math.sqrt(data_buckets / index_buckets)))


def no_index_costs(data_buckets: int) -> Tuple[float, float]:
    """Baseline without any index: the client listens from arrival until
    the item flies by -- mean access D/2, mean tuning D/2 (every slot
    listened)."""
    mean = data_buckets / 2
    return (mean, mean)

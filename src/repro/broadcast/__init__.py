"""The air interface: broadcast programs, schedules, and the channel.

* :mod:`repro.broadcast.program` -- what one broadcast cycle physically
  contains: a control segment, data buckets of
  :class:`~repro.broadcast.program.ItemRecord` s, and (for the
  multiversion method's overflow organization) old-version buckets at the
  end of the bcast.
* :mod:`repro.broadcast.schedule` -- in which order items are transmitted:
  the paper's flat organization, behind a base class a skewed order can
  replace.
* :mod:`repro.broadcast.channel` -- transmission timing: one bucket per
  slot, item delivery events, cycle-start synchronization, and the
  listener registry clients use to pick up control information.
"""

from repro.broadcast.channel import BroadcastChannel, ChannelListener
from repro.broadcast.indexing import OneMIndex, TuningCost, no_index_costs
from repro.broadcast.program import (
    Bucket,
    BroadcastProgram,
    ItemRecord,
    OldVersionRecord,
)
from repro.broadcast.schedule import FlatSchedule, Schedule

__all__ = [
    "BroadcastChannel",
    "BroadcastProgram",
    "Bucket",
    "ChannelListener",
    "FlatSchedule",
    "OneMIndex",
    "ItemRecord",
    "OldVersionRecord",
    "Schedule",
    "TuningCost",
    "no_index_costs",
]

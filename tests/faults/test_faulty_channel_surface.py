"""The client view's surface, on both ways of driving it.

One :class:`~repro.broadcast.channel.ClientView` serves every run mode;
these tests pin its tuning, timing and listener contracts once and run
each against the kernel-driven view (a ``FaultyChannel`` listening to a
``BroadcastChannel`` on an ``Environment``) and the kernel-less one (a
``CohortChannel`` stepped by a ``Member``).
"""

import math
from types import SimpleNamespace

import pytest

from repro.broadcast.channel import BroadcastChannel
from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    OldVersionRecord,
)
from repro.cohort.channel import CohortChannel
from repro.cohort.engine import Member
from repro.cohort.shim import CohortEnv
from repro.core.control import ControlInfo, InvalidationReport
from repro.faults.channel import FaultyChannel
from repro.sim import Environment
from repro.stats.metrics import FAULT_READS_LOST, MetricsRegistry


def make_program(cycle, versions=None, overflow=(), repeat_item_1=False):
    """Control at slot 0, items 1+2 at slot 1, item 3 at slot 2; then an
    optional second copy of item 1 (slot 3) and an optional overflow
    bucket in the last slot."""
    versions = versions or {}

    def record(item):
        value, version = versions.get(item, (item * 10, 0))
        return ItemRecord(item, value, version)

    data = [
        Bucket(index=0, records=(record(1), record(2))),
        Bucket(index=1, records=(record(3),)),
    ]
    if repeat_item_1:
        data.append(Bucket(index=2, records=(record(1),)))
    overflow_buckets = []
    if overflow:
        overflow_buckets = [Bucket(index=0, old_records=tuple(overflow))]
    return BroadcastProgram(
        cycle=cycle,
        control=ControlInfo(
            cycle=cycle, invalidation=InvalidationReport(cycle=cycle)
        ),
        data_buckets=data,
        overflow_buckets=overflow_buckets,
        control_slots=1,
    )


class Listener:
    def __init__(self):
        self.cycles = []
        self.reports = []
        self.lost = []

    def on_cycle_start(self, program):
        self.cycles.append(program.cycle)

    def on_interim_report(self, report):
        self.reports.append(report)

    def on_signal_lost(self, cycle):
        self.lost.append(cycle)


class LoseSlots:
    """Deterministic fault model: lose the given slots (in every cycle,
    or only in ``cycles``)."""

    def __init__(self, slots, cycles=None):
        self.slots = set(slots)
        self.cycles = cycles

    def apply(self, fate):
        if self.cycles is None or fate.cycle in self.cycles:
            fate.lost_slots |= self.slots


class LoseControl:
    """Deterministic fault model: the control segment of ``cycles`` is
    corrupted."""

    def __init__(self, cycles):
        self.cycles = set(cycles)

    def apply(self, fate):
        if fate.cycle in self.cycles:
            fate.control_lost = True


class DelayControl:
    """Deterministic fault model: the control segment of ``cycles``
    decodes ``delay`` slots late."""

    def __init__(self, delay, cycles):
        self.delay = delay
        self.cycles = set(cycles)

    def apply(self, fate):
        if fate.cycle in self.cycles:
            fate.control_delay = self.delay


class KernelRig:
    """``FaultyChannel`` on an ``Environment``: a server process airs the
    programs back to back, readers are kernel processes."""

    def __init__(self, pipeline):
        self.env = Environment()
        self.metrics = MetricsRegistry()
        self.inner = BroadcastChannel(self.env)
        self.view = FaultyChannel(self.inner, pipeline, self.metrics)

    def run(self, programs, reader=None):
        def server(env):
            for program in programs:
                self.inner.begin_cycle(program)
                yield env.timeout(program.total_slots)

        self.env.process(server(self.env))
        if reader is not None:
            self.env.process(reader)
        self.env.run()


class KernellessRig:
    """``CohortChannel`` stepped by a ``Member``, the way the cohort
    replayer and the live listener drive it."""

    def __init__(self, pipeline):
        self.env = CohortEnv()
        self.metrics = MetricsRegistry()
        self.view = CohortChannel(self.env, self.metrics, pipeline=pipeline)

    def run(self, programs, reader=None):
        member = Member(
            SimpleNamespace(process=reader or iter(())), self.view, self.env
        )
        member.advance()
        start = 0.0
        for program in programs:
            member.deliver(start, program)
            start += program.total_slots
        member.finish(start)


@pytest.fixture(params=[KernelRig, KernellessRig], ids=["kernel", "kernelless"])
def rig_of(request):
    return request.param


def reading(rig, wait, read, results):
    """A client process: sleep ``wait``, then ``read(view)``."""
    yield rig.env.timeout(wait)
    outcome = yield from read(rig.view)
    results.append((outcome, rig.env.now))


# -- listeners ---------------------------------------------------------------


def test_unsubscribe_is_idempotent(rig_of):
    rig = rig_of([LoseControl({2})])
    listener = Listener()
    rig.view.subscribe(listener)
    rig.view.unsubscribe(listener)
    rig.view.unsubscribe(listener)  # must be a no-op, not a ValueError
    rig.view.unsubscribe(Listener())  # never subscribed at all
    rig.run([make_program(1), make_program(2)])
    # Neither the heard cycle nor the lost one reaches a detached listener.
    assert listener.cycles == [] and listener.lost == []


def test_listener_hears_cycles_and_losses(rig_of):
    rig = rig_of([LoseControl({2})])
    listener = Listener()
    rig.view.subscribe(listener)
    rig.run([make_program(1), make_program(2), make_program(3)])
    assert listener.cycles == [1, 3]
    assert listener.lost == [2]


def test_unsubscribe_detaches_interim_handler():
    env = Environment()
    inner = BroadcastChannel(env)
    faulty = FaultyChannel(inner, pipeline=[])
    listener = Listener()
    faulty.subscribe(listener)
    # Reports only reach a client in step with the air.
    inner.publish_interim_report("early")
    assert listener.reports == []
    inner.begin_cycle(make_program(1))
    inner.publish_interim_report("r1")
    faulty.unsubscribe(listener)
    faulty.unsubscribe(listener)
    inner.publish_interim_report("r2")
    assert listener.reports == ["r1"]


def test_inner_unsubscribe_is_idempotent_for_wrapper():
    """Tearing a faulty client down detaches the wrapper from the real
    channel; doing so twice must be as safe as for a plain listener."""
    env = Environment()
    inner = BroadcastChannel(env)
    faulty = FaultyChannel(inner, pipeline=[])
    inner.unsubscribe(faulty)
    inner.unsubscribe(faulty)
    listener = Listener()
    faulty.subscribe(listener)
    inner.begin_cycle(make_program(1))
    # Detached wrapper no longer sees cycles.
    assert listener.cycles == []


# -- await_item --------------------------------------------------------------


def read_item(item):
    def read(view):
        record, cycle = yield from view.await_item(item)
        return (record.value, cycle)

    return read


def test_await_item_at_exact_delivery_instant(rig_of):
    """The delivery instant is inclusive: a process resuming exactly at
    ``delivery_time(slot)`` still hears the bucket."""
    rig = rig_of([])
    results = []
    # 2.5 is exactly item 3's delivery instant.
    rig.run(
        [make_program(1), make_program(2)],
        reading(rig, 2.5, read_item(3), results),
    )
    assert results == [((30, 1), 2.5)]


def test_lost_slot_at_exact_delivery_instant_makes_progress(rig_of):
    """Regression: with the inclusive delivery instant, a retry after a
    lost slot must resume *strictly after* that slot -- re-asking at the
    same instant returns the same slot forever (a zero-time livelock
    that froze whole faulty simulations)."""
    # Slot 2 (item 3's only copy) is lost in every cycle's fate -- the
    # client must fall through to the next cycle, where it is lost
    # again, and so on; the run must still terminate.
    rig = rig_of([LoseSlots({2})])
    results = []
    rig.run(
        [make_program(1), make_program(2), make_program(3)],
        reading(rig, 2.5, read_item(3), results),
    )  # pre-fix: never returns
    # Every cycle's copy is lost; the client never completes the read
    # but the run drains cleanly once the broadcast ends.
    assert results == []
    assert rig.metrics.counter(FAULT_READS_LOST).value == 3


def test_lost_slot_retries_catch_later_copy_same_cycle(rig_of):
    """A broadcast-disk layout repeats items: losing one copy must fall
    forward to the next repetition inside the same cycle."""
    rig = rig_of([LoseSlots({1})])
    results = []
    # 1.5 is exactly the lost first copy's instant.
    rig.run(
        [make_program(1, repeat_item_1=True)],
        reading(rig, 1.5, read_item(1), results),
    )
    # First copy (slot 1, t=1.5) lost; second copy heard at slot 3, t=3.5.
    assert results == [((10, 1), 3.5)]


# -- await_old_version -------------------------------------------------------


def read_old(item, cycle):
    def read(view):
        record, found, valid_to = yield from view.await_old_version(item, cycle)
        return (record and record.value, found, valid_to)

    return read


def test_old_version_current_copy_lost_falls_to_next_repetition(rig_of):
    rig = rig_of([LoseSlots({1})])
    results = []
    rig.run(
        [make_program(1, repeat_item_1=True)],
        reading(rig, 0.0, read_old(1, 1), results),
    )
    assert results == [((10, True, None), 3.5)]
    assert rig.metrics.counter(FAULT_READS_LOST).value == 1


def test_old_version_current_copy_lost_falls_to_next_heard_cycle(rig_of):
    rig = rig_of([LoseSlots({1}, cycles={1}), LoseControl({2})])
    results = []
    rig.run(
        [make_program(1), make_program(2), make_program(3)],
        reading(rig, 0.0, read_old(1, 1), results),
    )
    # Cycle 1's only copy is lost, cycle 2 is never heard: cycle 3's
    # copy (6 + 1.5) still carries the version current at cycle 1.
    assert results == [((10, True, None), 7.5)]


def test_old_version_overflow_copy_lost_waits_for_next_heard_cycle(rig_of):
    old = OldVersionRecord(item=1, value=9, version=0, valid_to=1)
    programs = [
        make_program(cycle, versions={1: (10, 2)}, overflow=[old])
        for cycle in (2, 3)
    ]
    # The overflow bucket rides the last slot (3), once per cycle.
    rig = rig_of([LoseSlots({3}, cycles={2})])
    results = []
    rig.run(programs, reading(rig, 0.0, read_old(1, 1), results))
    assert results == [((9, True, 1), 4 + 3.5)]


def test_old_version_gone_from_the_air_is_not_found(rig_of):
    rig = rig_of([LoseSlots({1})])
    results = []
    rig.run(
        [make_program(3, versions={1: (12, 3)})],  # no old versions aired
        reading(rig, 0.0, read_old(1, 1), results),
    )
    assert results == [((None, False, None), 0.0)]


# -- out of step -------------------------------------------------------------


@pytest.mark.parametrize(
    "read, expected",
    [
        (read_item(3), ((30, 3), 7 + 2.5)),
        # Cycle 1 airs item 1 at version 1 with nothing older: answered
        # from that stale program, a read as of cycle 0 would be "version
        # discarded, abort".  Cycle 3 carries the old version.
        (read_old(1, 0), ((9, True, 0), 7 + 3.5)),
    ],
    ids=["await_item", "await_old_version"],
)
def test_reads_park_through_a_lost_cycle(rig_of, read, expected):
    old = OldVersionRecord(item=1, value=9, version=0, valid_to=0)
    programs = [
        make_program(1, versions={1: (10, 1)}),
        make_program(2, versions={1: (10, 1)}, overflow=[old]),
        make_program(3, versions={1: (10, 1)}, overflow=[old]),
    ]
    rig = rig_of([LoseControl({2})])
    results = []
    # The reader wakes inside cycle 2 (3.0 .. 7.0), which it never heard.
    rig.run(programs, reading(rig, 3.2, read, results))
    assert results == [expected]


@pytest.mark.parametrize(
    "read, expected",
    [
        # Item 1's copy in cycle 2 (3 + 1.5) is still ahead of the reader.
        (read_item(1), ((10, 3), 6 + 1.5)),
        (read_old(1, 0), ((9, True, 0), 6 + 3.5)),
    ],
    ids=["await_item", "await_old_version"],
)
def test_signal_lost_without_a_pipeline_puts_the_view_out_of_step(read, expected):
    """The live wire-damage path: no fault pipeline, the driver itself
    reports the cycle lost.  The stale program must not be consulted."""
    rig = KernellessRig(None)
    old = OldVersionRecord(item=1, value=9, version=0, valid_to=0)
    results = []
    member = Member(
        SimpleNamespace(process=reading(rig, 3.2, read, results)),
        rig.view,
        rig.env,
    )
    member.advance()
    member.cross(0.0, 1, make_program(1, versions={1: (10, 1)}))
    member.cross(3.0, 2)
    member.run_until(6.0)
    assert results == []  # parked, not aborted off cycle 1's program
    member.cross(6.0, 3, make_program(3, versions={1: (10, 1)}, overflow=[old]))
    member.finish(10.0)
    assert results == [expected]


@pytest.mark.parametrize(
    "item, expected",
    [
        # Item 3's slot (3 + 2.5) comes after the late decode: heard.
        (3, ((30, 2), 5.5)),
        # Item 1's slot (3 + 1.5) flew before it: next cycle's copy.
        (1, ((10, 3), 6 + 1.5)),
    ],
    ids=["slot_after_decode", "slot_before_decode"],
)
def test_late_control_segment(rig_of, item, expected):
    """Reads before the install instant park; slots that flew before it
    are gone (``prefetch_time`` is ``inf``), later ones are heard, and
    slot timing stays anchored at the true cycle start."""
    rig = rig_of([DelayControl(1.75, cycles={2})])
    seen = []

    class Probe:
        def on_cycle_start(self, program):
            if program.cycle == 2:
                seen.append(
                    (
                        rig.env.now,
                        rig.view.cycle_start_time,
                        rig.view.prefetch_time(1),
                        rig.view.prefetch_time(2),
                    )
                )

    rig.view.subscribe(Probe())
    results = []
    # The reader wakes inside cycle 2 (starts 3.0) before its control
    # segment decodes (4.75).
    rig.run(
        [make_program(1), make_program(2), make_program(3)],
        reading(rig, 3.2, read_item(item), results),
    )
    assert seen == [(4.75, 3.0, math.inf, 5.5)]
    assert results == [expected]

"""Property tests pinning the engine's deterministic dispatch order.

The parallel sweep map (:func:`repro.experiments.runner.run_cells`)
promises byte-identical output regardless of worker count.  That contract bottoms
out here: the :class:`~repro.sim.engine.Environment` must dispatch
equal-time events in ``(priority, eid)`` order, where ``eid`` is the
monotonically increasing insertion counter.  If that order ever became
dependent on anything besides insertion order (hashing, memory layout,
wall clock), every simulation seed would stop being reproducible and the
parallel-vs-serial oracle would break.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.events import Event, EventPriority

#: A batch of events to schedule up front: (priority, integral delay).
_batches = st.lists(
    st.tuples(
        st.sampled_from([EventPriority.URGENT, EventPriority.NORMAL]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


def _schedule_recording_event(env, fired, index, priority, delay):
    event = Event(env)
    event._value = None
    event.callbacks.append(lambda _ev, index=index: fired.append(index))
    env.schedule(event, priority=priority, delay=delay)


@given(batch=_batches)
@settings(max_examples=100, deadline=None)
def test_dispatch_order_is_time_then_priority_then_insertion(batch):
    """Events fire sorted by (time, priority, insertion order)."""
    env = Environment()
    fired = []
    for index, (priority, delay) in enumerate(batch):
        _schedule_recording_event(env, fired, index, priority, float(delay))
    env.run()
    expected = sorted(
        range(len(batch)),
        key=lambda i: (batch[i][1], int(batch[i][0]), i),
    )
    assert fired == expected


@given(batch=_batches)
@settings(max_examples=50, deadline=None)
def test_dispatch_order_is_reproducible(batch):
    """Two environments given the same schedule dispatch identically."""

    def run_once():
        env = Environment()
        fired = []
        for index, (priority, delay) in enumerate(batch):
            _schedule_recording_event(env, fired, index, priority, float(delay))
        env.run()
        return fired

    assert run_once() == run_once()


@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_equal_time_timeouts_fire_in_creation_order(n):
    """Timeouts for the same instant fire in the order they were created."""
    env = Environment()
    fired = []
    for i in range(n):
        timeout = env.timeout(1.0)
        timeout.callbacks.append(lambda _ev, i=i: fired.append(i))
    env.run()
    assert fired == list(range(n))


@given(n=st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_urgent_preempts_normal_at_equal_time(n):
    """URGENT events beat NORMAL events scheduled earlier for the same time."""
    env = Environment()
    fired = []
    for i in range(n):
        _schedule_recording_event(env, fired, ("normal", i), EventPriority.NORMAL, 1.0)
    for i in range(n):
        _schedule_recording_event(env, fired, ("urgent", i), EventPriority.URGENT, 1.0)
    env.run()
    assert fired == [("urgent", i) for i in range(n)] + [
        ("normal", i) for i in range(n)
    ]

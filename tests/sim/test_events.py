"""Tests for the event lifecycle and the event classes' slots."""

import pytest

from repro.sim import Environment, StopSimulation


def test_event_lifecycle_flags():
    env = Environment()
    event = env.event()
    assert not event.triggered and not event.processed
    event.succeed(7)
    assert event.triggered and not event.processed
    env.run()
    assert event.processed
    assert event.value == 7


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_value_unavailable_before_trigger():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_succeed_returns_the_event():
    env = Environment()
    event = env.event()
    assert event.succeed() is event


def test_none_value_counts_as_triggered():
    env = Environment()
    event = env.event().succeed(None)
    assert event.triggered
    assert event.value is None


def test_untriggered_event_is_never_dispatched():
    env = Environment()
    event = env.event()
    env.run()
    assert not event.processed
    assert env.events_processed == 0


def test_callbacks_run_in_registration_order_with_the_event():
    env = Environment()
    event = env.event()
    calls = []
    event.callbacks.append(lambda ev: calls.append(("a", ev)))
    event.callbacks.append(lambda ev: calls.append(("b", ev)))
    event.succeed()
    env.run()
    assert calls == [("a", event), ("b", event)]


def test_zero_delay_timeout_fires_at_current_instant():
    env = Environment(initial_time=3.0)
    timeout = env.timeout(0)
    env.run()
    assert timeout.delay == 0
    assert timeout.processed
    assert env.now == 3.0


def test_repr_reports_lifecycle_state():
    env = Environment()
    event = env.event()
    assert "(pending)" in repr(event)
    event.succeed()
    assert "(triggered)" in repr(event)
    env.run()
    assert "(processed)" in repr(event)


def test_timeout_repr_shows_delay():
    env = Environment()
    assert repr(env.timeout(2.5)).startswith("<Timeout(2.5) object")


def test_stop_simulation_callback_carries_event_value():
    env = Environment()
    event = env.event().succeed("stop-value")
    with pytest.raises(StopSimulation) as excinfo:
        StopSimulation.callback(event)
    assert excinfo.value.args == ("stop-value",)


class TestSlotsContract:
    """The event hierarchy is the simulator's allocation hot spot: the
    kernel classes must stay ``__dict__``-free."""

    def test_kernel_events_have_no_dict(self):
        def empty(env):
            yield env.timeout(0)

        env = Environment()
        process = env.process(empty(env))
        for obj in (env.event(), env.timeout(1)):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert not hasattr(process, "__dict__")

    def test_timeout_still_fully_initialized(self):
        env = Environment()
        timeout = env.timeout(2.5, value="v")
        assert timeout.delay == 2.5
        assert timeout.triggered
        assert not timeout.processed
        env.run()
        assert timeout.value == "v"

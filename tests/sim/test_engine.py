"""Tests for the DES kernel's environment and run loop."""

import pytest

from repro.sim import Environment


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_starts_at_initial_time():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(3)
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == [3.0]


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert env.now == 3.5
    assert log == [1.0, 2.0, 3.0]


def test_run_until_boundary_excludes_events_at_stop_time():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=3)
    # The event at t=3 has not run: `until` stops before same-time events.
    assert log == [1.0, 2.0]


def test_run_until_past_or_present_time_returns_immediately():
    env = Environment()
    env.process(iter_one(env))
    env.run()
    # SimPy semantics: `until` at or before the current clock returns at
    # once instead of raising -- sweep drivers computing `until` from
    # accumulated floats can legally land exactly on the current time.
    before = env.events_processed
    assert env.run(until=0.5) is None
    assert env.run(until=env.now) is None
    assert env.now == 1.0
    assert env.events_processed == before


def iter_one(env):
    yield env.timeout(1)


def test_run_until_event_returns_value():
    env = Environment()

    def trigger(env, event):
        yield env.timeout(2)
        event.succeed("payload")

    event = env.event()
    env.process(trigger(env, event))
    assert env.run(until=event) == "payload"


def test_run_drains_queue_and_returns_none():
    env = Environment()
    env.process(iter_one(env))
    assert env.run() is None


def test_run_until_event_never_triggered_raises():
    env = Environment()
    event = env.event()
    env.process(iter_one(env))
    with pytest.raises(RuntimeError):
        env.run(until=event)


def test_events_at_same_time_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def exploder(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(exploder(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nested_run_calls_resume_after_stop():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=2.5)
    env.run(until=4.5)
    assert log == [1.0, 2.0, 3.0, 4.0]


def test_events_processed_counts_every_dispatch():
    env = Environment()
    env.process(iter_one(env))
    env.run()
    # The process's start, its timeout and its completion.
    assert env.events_processed == 3


def test_events_processed_accumulates_across_runs():
    env = Environment()
    env.process(iter_one(env))
    env.run(until=0.5)
    first = env.events_processed
    env.run()
    assert 0 < first < env.events_processed


def test_run_until_time_on_empty_queue_advances_clock():
    env = Environment()
    assert env.run(until=10) is None
    assert env.now == 10.0


def test_run_until_time_leaves_later_events_queued():
    env = Environment()
    timeout = env.timeout(5)
    env.run(until=3)
    assert not timeout.processed
    env.run()
    assert timeout.processed
    assert env.now == 5.0


def test_run_until_processed_event_returns_its_value_at_once():
    env = Environment()
    event = env.event().succeed("done")
    env.run()
    before = env.events_processed
    assert env.run(until=event) == "done"
    assert env.events_processed == before


def test_run_until_triggered_event_dispatches_it():
    env = Environment()
    event = env.event().succeed("x")
    assert env.run(until=event) == "x"
    assert event.processed


def test_run_until_process_returns_generator_return_value():
    env = Environment()

    def worker(env):
        yield env.timeout(4)
        return "result"

    assert env.run(until=env.process(worker(env))) == "result"
    assert env.now == 4.0


def test_run_until_event_leaves_same_time_later_events_unrun():
    env = Environment()
    first = env.timeout(1)
    second = env.timeout(1)
    env.run(until=first)
    assert first.processed and not second.processed
    env.run()
    assert second.processed


def test_schedule_places_event_after_delay():
    env = Environment()
    seen = []
    event = env.event()
    event.callbacks.append(lambda _ev: seen.append(env.now))
    env.schedule(event, delay=2.5)
    env.run()
    assert seen == [2.5]


def test_trace_hook_sees_each_dispatch_before_its_callbacks():
    env = Environment()
    seen = []
    env.set_trace_hook(
        lambda now, event: seen.append((now, env.now, event.processed))
    )
    env.process(iter_one(env))
    env.run()
    assert len(seen) == env.events_processed
    assert [now for now, _, _ in seen] == [0.0, 1.0, 1.0]
    assert all(now == clock and not done for now, clock, done in seen)


def test_trace_hook_can_be_cleared():
    env = Environment()
    seen = []
    env.set_trace_hook(lambda now, event: seen.append(now))
    env.set_trace_hook(None)
    env.process(iter_one(env))
    env.run()
    assert seen == []


def test_initial_time_offsets_timeouts():
    env = Environment(initial_time=5.0)
    timeout = env.timeout(2)
    assert env.run(until=4) is None
    assert env.now == 5.0
    env.run()
    assert timeout.processed
    assert env.now == 7.0


def test_process_failure_stops_run_before_later_same_time_events():
    env = Environment()
    log = []

    def exploder(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def bystander(env):
        yield env.timeout(1)
        log.append(env.now)

    env.process(exploder(env))
    env.process(bystander(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 1.0
    assert log == []

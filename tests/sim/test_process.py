"""Tests for generator-based processes: waiting, returning, crashing."""

import pytest

from repro.sim import Environment, Event


def test_process_return_value_propagates_to_waiter():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [42]


def test_timeout_value_passed_through_yield():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_exception_in_child_stops_the_run():
    """A process's exception leaves ``run`` at the instant it is raised;
    a parent waiting on the process is never resumed."""
    env = Environment()
    resumed = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(env):
        yield env.process(child(env))
        resumed.append(env.now)

    env.process(parent(env))
    with pytest.raises(ValueError, match="child failed"):
        env.run()
    assert env.now == 1.0
    assert resumed == []


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield "not an event"

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="not an Event"):
        env.run()


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.process("nope")


def test_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env):
        timeout = env.timeout(1)
        yield env.timeout(5)  # let the first timeout become processed
        value = yield timeout  # must not deadlock
        log.append((value, env.now))

    env.process(proc(env))
    env.run()
    assert log == [(None, 5.0)]


def test_process_name_comes_from_generator():
    env = Environment()

    def my_little_process(env):
        yield env.timeout(1)

    proc = env.process(my_little_process(env))
    assert proc.name == "my_little_process"
    env.run()


def test_process_fires_with_return_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1)
        return "done"

    proc = env.process(worker(env))
    assert isinstance(proc, Event)
    assert not proc.triggered
    env.run()
    assert proc.processed
    assert proc.value == "done"


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(1)
        return 7

    def parent(env, proc):
        yield env.timeout(3)
        value = yield proc
        log.append((value, env.now))

    env.process(parent(env, env.process(child(env))))
    env.run()
    assert log == [(7, 3.0)]


def test_process_without_yield_finishes_at_start_time():
    env = Environment()

    def instant(env):
        return 5
        yield  # pragma: no cover - makes this a generator

    assert env.run(until=env.process(instant(env))) == 5
    assert env.now == 0.0


def test_process_starts_before_normal_events_at_same_instant():
    env = Environment()
    order = []
    event = env.event()
    event.callbacks.append(lambda _ev: order.append("event"))
    event.succeed()

    def starter(env):
        order.append("process")
        yield env.timeout(0)

    env.process(starter(env))
    env.run()
    assert order == ["process", "event"]


def test_processes_start_in_creation_order():
    env = Environment()
    order = []

    def starter(env, name):
        order.append(name)
        yield env.timeout(0)

    for name in ("a", "b", "c"):
        env.process(starter(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_waiters_on_one_event_resume_in_yield_order():
    env = Environment()
    shared = env.event()
    order = []

    def waiter(env, name):
        value = yield shared
        order.append((name, value, env.now))

    def trigger(env):
        yield env.timeout(2)
        shared.succeed("go")

    for name in ("a", "b", "c"):
        env.process(waiter(env, name))
    env.process(trigger(env))
    env.run()
    assert order == [("a", "go", 2.0), ("b", "go", 2.0), ("c", "go", 2.0)]


def test_failed_process_is_never_triggered():
    env = Environment()

    def crasher(env):
        yield env.timeout(1)
        raise KeyError("gone")

    proc = env.process(crasher(env))
    with pytest.raises(KeyError):
        env.run()
    assert not proc.triggered


def test_non_event_yield_stops_run_at_that_instant():
    env = Environment()

    def bad(env):
        yield env.timeout(2)
        yield 3

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="'bad' yielded 3"):
        env.run()
    assert env.now == 2.0


def test_plain_iterator_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.process(iter([]))

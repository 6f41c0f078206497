"""The kernel's public surface is what the protocol drives, and no more."""

import repro.sim
from repro.sim import Environment


def test_exports_are_the_protocol_surface():
    assert sorted(repro.sim.__all__) == [
        "Environment",
        "Event",
        "EventPriority",
        "Process",
        "ProcessGenerator",
        "StopSimulation",
        "Timeout",
    ]
    for name in repro.sim.__all__:
        assert hasattr(repro.sim, name), name


def test_environment_and_event_expose_no_second_dispatch_or_failure_path():
    for name in ("step", "peek", "queue_length", "active_process", "all_of", "any_of"):
        assert not hasattr(Environment, name), name
    event = Environment().event()
    for name in ("fail", "trigger", "defused", "ok", "__and__", "__or__"):
        assert not hasattr(event, name), name

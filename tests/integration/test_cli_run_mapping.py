"""``repro run`` / ``repro serve`` flag mapping (latent-bug regression).

Both commands map their flags into ``ModelParameters`` and constructor
keyword arguments.  The drift mode: a flag the parser accepts whose
value never reaches the simulation or the server.  Each test sets
*every* flag of its command to a non-default value, intercepts what the
CLI builds, and asserts each value landed where it belongs.
"""

import argparse

import pytest

from repro import cli
from repro.config import DEFAULTS
from repro.faults.presets import get_preset
from repro.live import server as live_server
from repro.stats.metrics import MetricsRegistry


class _FakeResult:
    scheme_label = "stub"
    cycles_completed = 0
    mean_cycle_slots = 0.0
    total_attempts = 0
    committed_attempts = 0
    abort_rate = 0.0
    mean_latency_cycles = 0.0
    mean_span = 0.0
    metrics = MetricsRegistry()


@pytest.fixture
def captured(monkeypatch):
    """What ``repro run`` hands the (fake) single-channel simulation."""
    box = {}

    class FakeSimulation:
        def __init__(self, params, scheme_factory=None, **kwargs):
            box["params"] = params
            box["kwargs"] = kwargs
            box["scheme"] = scheme_factory()

        def run(self):
            return _FakeResult()

    monkeypatch.setattr(cli, "Simulation", FakeSimulation)
    return box


def test_run_maps_every_flag_into_the_simulation(captured):
    code = cli.main(
        [
            "run",
            "--scheme", "multiversion+cache",
            "--cycles", "33",
            "--warmup", "4",
            "--clients", "7",
            "--seed", "99",
            "--broadcast-size", "222",
            "--update-range", "111",
            "--updates", "13",
            "--offset", "17",
            "--ops", "5",
            "--read-range", "66",
            "--cache-size", "44",
            "--think-time", "1.5",
            "--retention", "9",
            "--reports-per-cycle", "2",
            "--report-window", "3",
            "--interleaved-server",
            "--slot-loss", "0.01",
            "--burst-loss", "0.02",
            "--burst-length", "5.0",
            "--control-loss", "0.03",
            "--truncation", "0.04",
            "--report-delay", "0.05",
            "--storm-rate", "0.06",
            "--fault-seed", "123",
            "--retry-policy", "backoff",
            "--backoff-base", "2",
            "--backoff-cap", "16",
            "--backoff-jitter", "0.1",
            "--deadline", "12",
            "--watchdog", "3",
            "--checkpoint", "4",
            "--catchup-window", "6",
            "--crash-rate", "0.07",
            "--crash-length", "2.5",
            "--degrade-after", "5",
            "--recover-after", "8",
            "--resilience-seed", "321",
        ]
    )
    assert code == 0

    params = captured["params"]
    server, client, sim = params.server, params.client, params.sim
    assert (server.broadcast_size, server.update_range, server.updates_per_cycle) == (222, 111, 13)
    assert (server.offset, server.retention) == (17, 9)
    assert (client.ops_per_query, client.read_range, client.cache_size) == (5, 66, 44)
    assert client.think_time == 1.5
    assert (sim.num_cycles, sim.warmup_cycles, sim.num_clients, sim.seed) == (33, 4, 7, 99)

    faults = params.faults
    assert (faults.slot_loss, faults.burst_rate, faults.burst_length) == (0.01, 0.02, 5.0)
    assert (faults.control_loss, faults.truncation) == (0.03, 0.04)
    assert (faults.report_delay, faults.storm_rate, faults.seed) == (0.05, 0.06, 123)

    res = params.resilience
    assert (res.retry_policy, res.backoff_base, res.backoff_cap) == ("backoff", 2, 16)
    assert (res.backoff_jitter, res.deadline_cycles, res.watchdog_attempts) == (0.1, 12, 3)
    assert (res.checkpoint_interval, res.catchup_window) == (4, 6)
    assert (res.crash_rate, res.crash_length) == (0.07, 2.5)
    assert (res.degrade_after, res.recover_after, res.seed) == (5, 8, 321)

    kwargs = captured["kwargs"]
    assert kwargs["report_schedule"].per_cycle == 2
    assert kwargs["report_schedule"].window == 3
    assert kwargs["interleaved_server"] is True
    assert kwargs["keep_history"] is False
    assert type(captured["scheme"]).__name__ == "MultiversionBroadcast"


def test_run_hands_the_scaled_preset_to_the_simulation(captured):
    assert cli.main(["run", "--preset", "deep-fade", "--severity", "0.5"]) == 0
    assert captured["params"].faults == get_preset("deep-fade").scaled(0.5)


def _parameter_actions(command):
    """``command``'s parameter-table flags, by option string."""
    (subparsers,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    table = {row[0] for row in cli.PARAMETER_FLAGS}
    return {
        action.option_strings[0]: action
        for action in subparsers.choices[command]._actions
        if action.option_strings and action.option_strings[0] in table
    }


def test_serve_maps_every_flag_into_the_server(monkeypatch, capsys):
    captured = {}

    class FakeServer:
        def __init__(self, params, requirements, **kwargs):
            captured["params"] = params
            captured["kwargs"] = kwargs
            raise ValueError("stub")

    monkeypatch.setattr(live_server, "LiveBroadcastServer", FakeServer)
    code = cli.main(
        [
            "serve",
            "--scheme", "multiversion+cache",
            "--host", "0.0.0.0",
            "--port", "9",
            "--slot-seconds", "0.25",
            "--cycles", "33",
            "--warmup", "4",
            "--clients", "7",
            "--seed", "99",
            "--broadcast-size", "222",
            "--update-range", "111",
            "--updates", "13",
            "--offset", "17",
            "--ops", "5",
            "--read-range", "66",
            "--cache-size", "44",
            "--think-time", "1.5",
            "--retention", "9",
            "--report-window", "3",
        ]
    )
    assert code == 2
    assert capsys.readouterr().out == "serve: stub\n"

    params = captured["params"]
    server, client, sim = params.server, params.client, params.sim
    assert (server.broadcast_size, server.update_range, server.updates_per_cycle) == (222, 111, 13)
    assert (server.offset, server.retention) == (17, 9)
    assert (client.ops_per_query, client.read_range, client.cache_size) == (5, 66, 44)
    assert client.think_time == 1.5
    assert (sim.num_cycles, sim.warmup_cycles, sim.num_clients, sim.seed) == (33, 4, 7, 99)
    assert params.faults == DEFAULTS.faults
    assert params.resilience == DEFAULTS.resilience

    kwargs = captured["kwargs"]
    assert kwargs["scheme_label"] == "multiversion+cache"
    assert (kwargs["host"], kwargs["port"]) == ("0.0.0.0", 9)
    assert kwargs["clock"].slot_seconds == 0.25
    assert kwargs["report_schedule"].window == 3


def test_serve_parameter_flags_parse_as_run_parses_them():
    run, serve = _parameter_actions("run"), _parameter_actions("serve")
    assert len(serve) == 13 and set(serve) < set(run)
    for flag, action in serve.items():
        twin = run[flag]
        assert (action.dest, action.type, action.default) == (
            twin.dest,
            twin.type,
            twin.default,
        ), flag

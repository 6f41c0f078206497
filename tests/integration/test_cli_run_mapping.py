"""``repro run`` flag mapping (latent-bug regression, same class as the
argv-forwarding audit).

``repro run`` does not re-forward argv -- it maps every flag into
``ModelParameters`` / ``Simulation`` keyword arguments directly.  The
drift mode is identical though: a flag the parser accepts whose value
never reaches the simulation.  This test sets *every* ``repro run``
flag to a non-default value, intercepts the ``Simulation`` the CLI
builds, and asserts each value landed where it belongs.
"""

from repro import cli
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


def test_run_maps_every_flag_into_the_simulation(monkeypatch):
    captured = {}

    class FakeSimulation:
        def __init__(self, params, scheme_factory=None, **kwargs):
            captured["params"] = params
            captured["kwargs"] = kwargs
            captured["scheme"] = scheme_factory()

        def run(self):
            return _FakeResult()

    monkeypatch.setattr(cli, "Simulation", FakeSimulation)
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

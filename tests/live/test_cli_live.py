"""CLI surface of the live mode: ``repro serve`` and ``repro listen``."""

import asyncio
import threading

from repro.cli import main
from repro.cohort.oracle import oracle_params
from repro.experiments.schemes import scheme_factory
from repro.live.server import LiveBroadcastServer

SERVE_SMALL = [
    "serve",
    "--port", "0",
    "--cycles", "8",
    "--warmup", "2",
    "--broadcast-size", "100",
    "--update-range", "50",
    "--updates", "8",
    "--offset", "20",
    "--read-range", "40",
    "--cache-size", "20",
    "--ops", "4",
]


def test_serve_airs_to_an_empty_room(capsys):
    """Broadcast push: the server's work is audience-independent, so a
    serve with zero listeners still airs every cycle and exits 0."""
    assert main(SERVE_SMALL) == 0
    out = capsys.readouterr().out
    assert "airing sgt+cache on 127.0.0.1:" in out
    assert "aired 8 cycle(s)" in out


def test_serve_rejects_resilient_configs_with_exit_2(capsys):
    assert main(SERVE_SMALL + ["--report-window", "-1"]) == 2
    assert "serve:" in capsys.readouterr().out


def test_listen_reports_a_session_summary(capsys):
    params = oracle_params(1, seed=7, faults=False, num_cycles=12)
    scheme = scheme_factory("inval+cache")()
    ready = threading.Event()
    box = {}

    def serve() -> None:
        async def go() -> None:
            server = LiveBroadcastServer(
                params, scheme.requirements(), scheme_label="inval+cache"
            )
            await server.start()
            box["port"] = server.port
            ready.set()
            await server.wait_for_clients(1, timeout=30.0)
            await server.run()
            await server.stop()
            box["cycles"] = server.backend.cycles_completed

        asyncio.run(go())

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        assert ready.wait(10.0)
        code = main(["listen", "--port", str(box["port"])])
    finally:
        thread.join(30.0)
    assert code == 0
    assert not thread.is_alive()
    assert box["cycles"] == 12
    out = capsys.readouterr().out
    # The summary names the resolved scheme (its own label, which may be
    # longer than the registry key aired in the HELLO).
    assert "invalidation-only+cache" in out
    assert "cycles heard" in out
    # Measured tuning: what was heard, and how much of it was parsed.
    assert "data buckets heard" in out and "data buckets parsed" in out


def test_listen_against_a_dead_port_exits_1(capsys):
    # Grab a port that is certainly closed by binding and releasing it.
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    assert main(["listen", "--port", str(port)]) == 1
    assert "listen:" in capsys.readouterr().out

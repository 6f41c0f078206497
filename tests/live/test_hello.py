"""The HELLO frame is outside input.

A well-framed HELLO whose JSON is not what the server would have sent
must end the session with a :class:`FrameError` -- which ``repro
listen`` reports in one line and exit code 1 -- never with a
``KeyError``/``TypeError`` traceback out of the client.
"""

import asyncio
import copy
import json
import threading

import pytest

from repro.cli import main
from repro.cohort.oracle import oracle_params
from repro.experiments.schemes import scheme_factory
from repro.live.client import LiveClient
from repro.live.codec import HELLO, FrameError, encode_json_frame
from repro.live.server import LiveBroadcastServer

PARAMS = oracle_params(1, seed=7, faults=False, num_cycles=12)


def _good_hello() -> dict:
    scheme = scheme_factory("inval+cache")()
    server = LiveBroadcastServer(
        PARAMS, scheme.requirements(), scheme_label="inval+cache"
    )
    return server._hello_payload()


def _without(path):
    def mangle(hello):
        *parents, leaf = path
        for key in parents:
            hello = hello[key]
        del hello[leaf]

    return mangle


def _with(path, value):
    def mangle(hello):
        *parents, leaf = path
        for key in parents:
            hello = hello[key]
        hello[leaf] = value

    return mangle


MALFORMED = {
    "hello-not-an-object": lambda hello: [],
    "missing-profile": _without(["profile"]),
    "missing-params": _without(["params"]),
    "missing-requirements": _without(["requirements"]),
    "missing-params-section": _without(["params", "client"]),
    "missing-server-field": _without(["params", "server", "retention"]),
    "missing-profile-field": _without(["profile", "span"]),
    "unknown-server-field": _with(["params", "server", "shoe_size"], 44),
    "unknown-requirement": _with(["requirements", "needs_coffee"], True),
    "unknown-profile-field": _with(["profile", "colour"], "red"),
    "params-not-an-object": _with(["params"], [1, 2, 3]),
    "section-not-an-object": _with(["params", "sim"], "fast"),
    "requirements-not-an-object": _with(["requirements"], None),
    "profile-not-an-object": _with(["profile"], 7),
    "string-for-int": _with(["params", "server", "broadcast_size"], "100"),
    "bool-for-int": _with(["params", "sim", "num_cycles"], True),
    "float-for-int": _with(["profile", "key_bits"], 32.5),
    "int-for-bool": _with(["requirements", "needs_sgt"], 1),
    "string-for-optional-seed": _with(["params", "faults", "seed"], "x"),
    "unknown-organization": _with(["profile", "organization"], "sideways"),
    "unknown-scheme": _with(["scheme"], "telepathy"),
    "scheme-not-a-string": _with(["scheme"], ["inval"]),
}


def _mangled(name: str) -> dict:
    hello = copy.deepcopy(_good_hello())
    replaced = MALFORMED[name](hello)
    return hello if replaced is None else replaced


def test_the_servers_own_hello_is_accepted():
    client = LiveClient("127.0.0.1", 0)
    client._on_hello(json.dumps(_good_hello()).encode("utf-8"))
    assert client.params == PARAMS
    assert client.member is not None


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_hello_is_a_frame_error(name):
    client = LiveClient("127.0.0.1", 0)
    with pytest.raises(FrameError):
        client._on_hello(json.dumps(_mangled(name)).encode("utf-8"))


@pytest.mark.parametrize("name", ["missing-profile", "unknown-server-field"])
def test_listen_reports_a_malformed_hello_and_exits_1(name, capsys):
    frame = encode_json_frame(HELLO, _mangled(name))
    ready = threading.Event()
    box = {}

    def serve() -> None:
        async def handle(reader, writer):
            writer.write(frame)
            await writer.drain()
            await reader.read()  # until the listener hangs up
            writer.close()
            box["done"].set()

        async def go() -> None:
            box["done"] = asyncio.Event()
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            box["port"] = server.sockets[0].getsockname()[1]
            ready.set()
            async with server:
                await asyncio.wait_for(box["done"].wait(), 30.0)

        asyncio.run(go())

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        assert ready.wait(10.0)
        code = main(["listen", "--port", str(box["port"])])
    finally:
        thread.join(30.0)
    assert not thread.is_alive()
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("listen: malformed")
    assert "Traceback" not in out

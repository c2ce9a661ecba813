"""``repro serve`` smoke tests: a scripted session diffs against a fixture.

The fixture pair under ``tests/service/fixtures/`` pins the wire format:
``serve_session.jsonl`` is a scripted client (routes, a weight update, a
fail/restore cycle, one malformed op, shutdown) and
``serve_session.expected.jsonl`` the exact bytes the server must answer.
CI pipes the same fixture through the installed CLI, so a wire-format
change has to be made deliberately by re-recording the fixture.  The
fixture was recorded under the default path engine: the reference engine
compiles no graph, so its weight update answers ``"compiled_patched":
false``.  Both tests pin the default.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_ARGS = ["serve", "shortest-path", "--n", "16", "--seed", "0", "--quiet"]


def fixture_lines(name):
    return (FIXTURES / name).read_text().splitlines()


def test_serve_cli_matches_recorded_fixture():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *SERVE_ARGS],
        input=(FIXTURES / "serve_session.jsonl").read_text(),
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == fixture_lines(
        "serve_session.expected.jsonl")


def make_cli_equivalent_service(n=16, seed=0):
    """The exact service ``repro serve shortest-path --n N --seed S`` runs.

    Mirrors ``cli._topology`` (one continuing rng for topology and
    weights) and ``cmd_serve`` (scheme seed is ``--seed + 1``).
    """
    import random

    from repro.algebra.catalog import ShortestPath
    from repro.graphs.generators import erdos_renyi
    from repro.graphs.weighting import assign_random_weights
    from repro.service import RoutingService, ServiceOptions

    algebra = ShortestPath()
    rng = random.Random(seed)
    graph = erdos_renyi(n, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return RoutingService(graph, algebra, ServiceOptions(seed=seed + 1))


def test_serve_lines_matches_recorded_fixture():
    # The same session in-process: serve_lines is what both the stdio and
    # socket front ends drain through.
    from repro.service import serve_lines

    service = make_cli_equivalent_service()
    out = io.StringIO()
    stopped = serve_lines(service, fixture_lines("serve_session.jsonl"), out)
    assert stopped
    assert out.getvalue().splitlines() == fixture_lines(
        "serve_session.expected.jsonl")


def test_serve_session_survives_bad_lines():
    from repro.service import serve_lines

    service = make_cli_equivalent_service(n=8, seed=1)
    out = io.StringIO()
    stopped = serve_lines(service, [
        "this is not json",
        "",
        '{"op": "route", "pairs": "nope"}',
        '{"id": 7, "op": "memory"}',
    ], out)
    assert not stopped  # EOF without shutdown leaves the server loop False
    lines = out.getvalue().splitlines()
    assert len(lines) == 3  # the blank line produced no response
    import json

    first, second, third = (json.loads(line) for line in lines)
    assert not first["ok"] and "bad JSON" in first["error"]
    assert not second["ok"] and "pairs" in second["error"]
    assert third["ok"] and third["id"] == 7


class _Announce:
    """Captures serve_socket's ``listening on HOST:PORT`` ready line."""

    def __init__(self):
        import threading

        self.event = threading.Event()
        self.addr = None

    def write(self, text):
        head, _, port = text.strip().rpartition(":")
        self.addr = (head.split()[-1], int(port))

    def flush(self):
        self.event.set()


def test_serve_socket_round_trip():
    import json
    import socket
    import threading

    from repro.service import serve_socket

    service = make_cli_equivalent_service(n=8, seed=1)
    ready = _Announce()
    thread = threading.Thread(
        target=serve_socket,
        kwargs={"service": service, "port": 0, "ready": ready},
        daemon=True)
    thread.start()
    assert ready.event.wait(timeout=30)
    with socket.create_connection(ready.addr, timeout=30) as conn:
        stream = conn.makefile("rw", encoding="utf-8", newline="\n")
        stream.write('{"id": 1, "op": "route", "pairs": [[0, 1]]}\n')
        stream.write('{"id": 2, "op": "shutdown"}\n')
        stream.flush()
        first = json.loads(stream.readline())
        second = json.loads(stream.readline())
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert first["ok"] and first["op"] == "route"
    assert second["result"] == {"stopping": True}


class _AnnounceLog:
    """Like :class:`_Announce` but keeps every line the server logs."""

    def __init__(self):
        import threading

        self.event = threading.Event()
        self.addr = None
        self.lines = []

    def write(self, text):
        self.lines.append(text)
        if self.addr is None and text.startswith("listening on "):
            head, _, port = text.strip().rpartition(":")
            self.addr = (head.split()[-1], int(port))
            self.event.set()

    def flush(self):
        pass


def test_serve_socket_survives_abrupt_client_disconnect():
    """An RST from one client must not kill the accept loop.

    Pre-fix, the ConnectionResetError/BrokenPipeError raised inside
    ``serve_lines`` propagated out of ``serve_socket`` and the server
    thread died — the second client here would read EOF instead of a
    route response.
    """
    import json
    import socket
    import struct
    import threading

    from repro.service import serve_socket

    service = make_cli_equivalent_service(n=8, seed=1)
    ready = _AnnounceLog()
    thread = threading.Thread(
        target=serve_socket,
        kwargs={"service": service, "port": 0, "ready": ready},
        daemon=True)
    thread.start()
    assert ready.event.wait(timeout=30)

    # First client: send a request, then slam the connection shut with an
    # RST (SO_LINGER with zero timeout) without reading the response.
    rude = socket.create_connection(ready.addr, timeout=30)
    rude.sendall(b'{"id": 1, "op": "route", "pairs": [[0, 1]]}\n')
    rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    rude.close()

    # Second client: the server must still be accepting and answering.
    with socket.create_connection(ready.addr, timeout=30) as conn:
        stream = conn.makefile("rw", encoding="utf-8", newline="\n")
        stream.write('{"id": 2, "op": "route", "pairs": [[0, 1]]}\n')
        stream.write('{"id": 3, "op": "shutdown"}\n')
        stream.flush()
        first = stream.readline()
        assert first, "server died after abrupt disconnect"
        assert json.loads(first)["ok"]
        assert json.loads(stream.readline())["result"] == {"stopping": True}
    thread.join(timeout=30)
    assert not thread.is_alive()

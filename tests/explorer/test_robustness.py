"""Client/server robustness: reconnects, retries, error visibility,
graceful shutdown.

Satellite coverage for the crash-safety PR: the PerfExplorer transport
must distinguish "could not connect at all" (ConnectTimeout, after
backed-off attempts) from "the connection died mid-call" (ProtocolError,
retried once for read-only RPCs only), and the server must never swallow
its own bugs silently nor drop in-flight requests at shutdown.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import pytest

from repro.db.minisql import reset_shared_databases
from repro.explorer import (
    AnalysisServer, PerfExplorerClient, ProtocolError, SocketServer,
)
from repro.explorer.protocol import ConnectTimeout
from repro.obs.metrics import registry


@pytest.fixture(scope="module")
def server_fixture():
    analysis = AnalysisServer("minisql://robustness-tests")
    sock = SocketServer(analysis)
    host, port = sock.start()
    yield sock, analysis, host, port
    sock.stop()
    reset_shared_databases()


def _dead_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestClientReconnect:
    def test_connect_timeout_after_backoff_attempts(self):
        before = registry.counter("explorer.client.reconnects").value
        t0 = time.perf_counter()
        with pytest.raises(ConnectTimeout) as exc_info:
            PerfExplorerClient(
                "127.0.0.1", _dead_port(), connect_retries=3, backoff=0.02
            )
        elapsed = time.perf_counter() - t0
        assert "after 3 attempts" in str(exc_info.value)
        # Two sleeps between three attempts: 0.02 + 0.04.
        assert elapsed >= 0.05
        assert registry.counter("explorer.client.reconnects").value == before + 2
        # ConnectTimeout is a ProtocolError, so broad handlers still work,
        # but it is catchable on its own.
        assert isinstance(exc_info.value, ProtocolError)

    def test_read_only_call_retries_after_dead_connection(self, server_fixture):
        _sock, _analysis, host, port = server_fixture
        client = PerfExplorerClient(host, port, connect_retries=2, backoff=0.01)
        try:
            assert client.ping() == "pong"
            before = registry.counter("explorer.client.retries").value
            client._stream.sock.close()  # the connection dies under us
            assert client.ping() == "pong"  # transparently reconnected
            assert (
                registry.counter("explorer.client.retries").value == before + 1
            )
        finally:
            client.close()

    def test_mutating_call_never_retries(self, server_fixture):
        _sock, _analysis, host, port = server_fixture
        client = PerfExplorerClient(host, port, connect_retries=2, backoff=0.01)
        try:
            before = registry.counter("explorer.client.retries").value
            client._stream.sock.close()
            with pytest.raises((ProtocolError, OSError)):
                client.run_workflow([])  # mutating: must surface the error
            assert registry.counter("explorer.client.retries").value == before
        finally:
            client.close()


class TestServerErrorVisibility:
    def test_client_disconnect_is_counted_not_logged_as_error(
        self, server_fixture
    ):
        _sock, _analysis, host, port = server_fixture
        disconnects = registry.counter("server.client_disconnects")
        errors = registry.counter("server.client_errors")
        d0, e0 = disconnects.value, errors.value
        raw = socket.create_connection((host, port))
        raw.sendall(b"this is not a json frame\n")
        raw.close()
        deadline = time.monotonic() + 5
        while disconnects.value == d0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert disconnects.value == d0 + 1
        assert errors.value == e0  # a bad client is not a server bug

    def test_server_bug_hits_error_counter_with_traceback(self, server_fixture):
        """A handler whose *response* cannot be encoded escapes
        _handle_one — the serve loop must count and log it, never
        swallow it (the old bare ``except Exception: pass``)."""
        sock, analysis, host, port = server_fixture
        analysis._handlers["unencodable"] = lambda: {1, 2, 3}  # sets aren't JSON
        errors = registry.counter("server.client_errors")
        e0 = errors.value
        client = PerfExplorerClient(host, port, connect_retries=2, backoff=0.01)
        try:
            with pytest.raises((ProtocolError, OSError)):
                client.call("unencodable")
            deadline = time.monotonic() + 5
            while errors.value == e0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert errors.value == e0 + 1
        finally:
            analysis._handlers.pop("unencodable", None)
            client.close()


class TestGracefulShutdown:
    def test_stop_drains_in_flight_requests(self):
        analysis = AnalysisServer("minisql://robustness-drain")
        sock = SocketServer(analysis)
        host, port = sock.start()
        release = threading.Event()

        def slow_handler():
            release.wait(timeout=10)
            return "drained"

        analysis._handlers["slow"] = slow_handler
        client = PerfExplorerClient(host, port)
        results = []

        def call_slow():
            results.append(client.call("slow"))

        t = threading.Thread(target=call_slow)
        t.start()
        deadline = time.monotonic() + 5
        while sock._in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sock._in_flight == 1

        def finish():
            time.sleep(0.2)
            release.set()

        threading.Thread(target=finish).start()
        t0 = time.perf_counter()
        sock.stop(drain=True, timeout=10)
        # stop() blocked until the handler finished...
        assert time.perf_counter() - t0 >= 0.1
        assert sock._in_flight == 0
        t.join(timeout=5)
        # ...and the client still got its response.
        assert results == ["drained"]
        client.close()
        reset_shared_databases()

    def test_stop_times_out_on_stuck_request(self):
        analysis = AnalysisServer("minisql://robustness-stuck")
        sock = SocketServer(analysis)
        host, port = sock.start()
        release = threading.Event()
        analysis._handlers["stuck"] = lambda: release.wait(timeout=30)
        client = PerfExplorerClient(host, port)

        def stuck_call():
            # stop() now force-closes lingering client sockets, so the
            # abandoned call ends in a transport error — expected here.
            with contextlib.suppress(ProtocolError, OSError):
                client.call("stuck")

        t = threading.Thread(target=stuck_call, daemon=True)
        t.start()
        deadline = time.monotonic() + 5
        while sock._in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sock._in_flight == 1
        t0 = time.perf_counter()
        sock.stop(drain=True, timeout=0.2)  # gives up, doesn't hang
        assert 0.15 <= time.perf_counter() - t0 < 5.0
        release.set()
        t.join(timeout=5)
        client.close()
        reset_shared_databases()

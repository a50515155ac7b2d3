"""The event-loop serving core: pipelining, admission at the dispatch
queue, drain accounting, slowloris reaping, connection caps, the chaos
shim at every ``net.server.*`` point, and a many-idle-connection soak
asserting the whole point of the rebuild — connections no longer cost
threads.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.explorer.client import PerfExplorerClient, RetryLater
from repro.explorer.protocol import MessageStream, ProtocolError
from repro.explorer.server import AnalysisServer, SocketServer
from repro.obs.metrics import registry
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm_all()
    yield
    faults.disarm_all()


def _start(analysis=None, **kwargs):
    analysis = analysis or AnalysisServer("minisql://:memory:")
    sock = SocketServer(analysis, port=0, **kwargs)
    host, port = sock.start()
    return sock, analysis, host, port


def _raw_stream(host: str, port: int) -> MessageStream:
    return MessageStream(socket.create_connection((host, port), timeout=10))


class TestPipelining:
    def test_replies_come_back_in_request_order(self):
        """Requests finishing out of order on the executor must still be
        answered in request order: the first request sleeps while the
        later ones complete, yet its reply arrives first."""
        sock, analysis, host, port = _start(executor_threads=4)
        analysis._handlers["slow"] = lambda: time.sleep(0.3) or "slow"
        analysis._handlers["fast"] = lambda: "fast"
        try:
            stream = _raw_stream(host, port)
            for rid, method in [(1, "slow"), (2, "fast"), (3, "fast")]:
                stream.send({"id": rid, "method": method, "params": {}})
            replies = [stream.receive(timeout=10) for _ in range(3)]
            assert [r["id"] for r in replies] == [1, 2, 3]
            assert [r["result"] for r in replies] == ["slow", "fast", "fast"]
            stream.close()
        finally:
            sock.stop(drain=False)

    def test_deep_pipeline_single_connection(self):
        sock, _analysis, host, port = _start(executor_threads=2)
        try:
            stream = _raw_stream(host, port)
            n = 100
            for rid in range(n):
                stream.send({"id": rid, "method": "ping", "params": {}})
            replies = [stream.receive(timeout=30) for _ in range(n)]
            assert [r["id"] for r in replies] == list(range(n))
            assert all(r["result"] == "pong" for r in replies)
            stream.close()
        finally:
            sock.stop(drain=False)

    def test_client_call_pipelined(self):
        sock, _analysis, host, port = _start()
        try:
            with PerfExplorerClient(host, port, timeout=10) as client:
                results = client.call_pipelined(
                    [("ping", {}), ("server_load", {}), ("ping", {})]
                )
            assert results[0] == "pong" and results[2] == "pong"
            assert set(results[1]) == {"in_flight", "queued", "connections"}
        finally:
            sock.stop(drain=False)

    def test_client_call_pipelined_surfaces_errors(self):
        sock, _analysis, host, port = _start()
        try:
            with PerfExplorerClient(host, port, timeout=10) as client:
                results = client.call_pipelined(
                    [("ping", {}), ("no_such_method", {}), ("ping", {})],
                    return_exceptions=True,
                )
                assert results[0] == "pong" and results[2] == "pong"
                assert isinstance(results[1], Exception)
                with pytest.raises(Exception, match="no_such_method"):
                    client.call_pipelined(
                        [("ping", {}), ("no_such_method", {})]
                    )
        finally:
            sock.stop(drain=False)

    def test_shed_reply_preserves_pipeline_order(self):
        """Even a RETRY_LATER shed answers in pipeline position: a shed
        second request must not leapfrog the executing first one."""
        analysis = AnalysisServer("minisql://:memory:")
        release = threading.Event()
        analysis._handlers["block"] = lambda: release.wait(10) and "done"
        sock, _, host, port = _start(analysis, max_in_flight=1)
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "block", "params": {}})
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with sock._idle:
                    if sock._in_flight == 1:
                        break
                time.sleep(0.01)
            stream.send({"id": 2, "method": "ping", "params": {}})
            threading.Timer(0.2, release.set).start()
            first = stream.receive(timeout=10)
            second = stream.receive(timeout=10)
            assert first["id"] == 1 and first["result"] == "done"
            assert second["id"] == 2 and second.get("retry_later")
            stream.close()
        finally:
            release.set()
            sock.stop(drain=False)


class TestDrainAccounting:
    def test_executing_finish_and_queued_get_retry_later(self):
        """stop(drain=True) regression (satellite 2): the dispatched
        request completes with its real result; queued-not-dispatched
        pipelined requests are answered RETRY_LATER, and every reply is
        flushed before the socket closes."""
        analysis = AnalysisServer("minisql://:memory:")
        release = threading.Event()
        analysis._handlers["block"] = lambda: release.wait(10) and "done"
        sock, _, host, port = _start(analysis, executor_threads=1)
        drain_shed_before = registry.counter("server.drain_shed_total").value
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "block", "params": {}})
            # Wait until request 1 is executing (queue empty, 1 in flight),
            # then pipeline two more that can only sit in the queue.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with sock._idle:
                    if sock._in_flight == 1 and not sock._queue:
                        break
                time.sleep(0.01)
            stream.send({"id": 2, "method": "ping", "params": {}})
            stream.send({"id": 3, "method": "ping", "params": {}})
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with sock._idle:
                    if len(sock._queue) == 2:
                        break
                time.sleep(0.01)
            stopper = threading.Thread(
                target=lambda: sock.stop(drain=True, timeout=10), daemon=True
            )
            stopper.start()
            time.sleep(0.1)
            release.set()
            replies = [stream.receive(timeout=10) for _ in range(3)]
            assert [r["id"] for r in replies] == [1, 2, 3]
            assert replies[0]["result"] == "done"
            assert replies[1].get("retry_later") and replies[2].get("retry_later")
            stopper.join(timeout=10)
            assert not stopper.is_alive()
            assert registry.counter(
                "server.drain_shed_total"
            ).value == drain_shed_before + 2
            stream.close()
        finally:
            release.set()
            sock.stop(drain=False)

    def test_stop_without_drain_never_runs_queued_requests(self):
        """stop(drain=False) returns while a request still executes; the
        two requests queued behind it were never dispatched, so they
        must never run, not even once the executing one finishes."""
        analysis = AnalysisServer("minisql://:memory:")
        release = threading.Event()
        ran: list[int] = []
        analysis._handlers["block"] = lambda: release.wait(10) and "done"
        analysis._handlers["record"] = lambda n: ran.append(n) or n
        sock, _, host, port = _start(analysis, executor_threads=1)
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "block", "params": {}})
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with sock._idle:
                    if sock._in_flight == 1 and not sock._queue:
                        break
                time.sleep(0.01)
            for rid in (2, 3):
                stream.send(
                    {"id": rid, "method": "record", "params": {"n": rid}}
                )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with sock._idle:
                    if len(sock._queue) == 2:
                        break
                time.sleep(0.01)
            assert len(sock._queue) == 2
            sock.stop(drain=False)
            release.set()
            for worker in sock._workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            assert ran == []
            stream.close()
        finally:
            release.set()
            sock.stop(drain=False)

    def test_stop_is_idempotent(self):
        sock, _analysis, _host, _port = _start()
        sock.stop()
        sock.stop()  # second stop must be a no-op, not an error


class TestSlowlorisGuard:
    def test_partial_frame_stall_is_reaped(self):
        sock, _analysis, host, port = _start(partial_frame_timeout=0.2)
        reaped_before = registry.counter("server.idle_reaped_total").value
        try:
            raw = socket.create_connection((host, port), timeout=10)
            raw.sendall(b'{"id": 1, "method"')  # half a frame, then stall
            raw.settimeout(5)
            assert raw.recv(64) == b""  # server closed on us
            assert registry.counter(
                "server.idle_reaped_total"
            ).value == reaped_before + 1
            raw.close()
        finally:
            sock.stop(drain=False)

    def test_idle_connection_is_reaped(self):
        sock, _analysis, host, port = _start(idle_timeout=0.2)
        reaped_before = registry.counter("server.idle_reaped_total").value
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "ping", "params": {}})
            assert stream.receive(timeout=10)["result"] == "pong"
            stream.sock.settimeout(5)
            assert stream.sock.recv(64) == b""  # reaped after going idle
            assert registry.counter(
                "server.idle_reaped_total"
            ).value == reaped_before + 1
            stream.sock.close()
        finally:
            sock.stop(drain=False)

    def test_active_connection_survives_idle_timeout(self):
        """A connection with a request in flight is busy, not idle: the
        reaper must leave it alone even past the timeout."""
        analysis = AnalysisServer("minisql://:memory:")
        analysis._handlers["slow"] = lambda: time.sleep(0.5) or "ok"
        sock, _, host, port = _start(analysis, idle_timeout=0.2)
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "slow", "params": {}})
            assert stream.receive(timeout=10)["result"] == "ok"
            stream.close()
        finally:
            sock.stop(drain=False)


class TestConnectionCap:
    def test_connections_past_cap_are_refused(self):
        sock, _analysis, host, port = _start(max_connections=2)
        refused_before = registry.counter(
            "server.connections_refused_total"
        ).value
        try:
            keep = [_raw_stream(host, port) for _ in range(2)]
            for stream in keep:
                stream.send({"id": 1, "method": "ping", "params": {}})
                assert stream.receive(timeout=10)["result"] == "pong"
            extra = socket.create_connection((host, port), timeout=10)
            extra.settimeout(5)
            assert extra.recv(64) == b""  # refused: closed without service
            assert registry.counter(
                "server.connections_refused_total"
            ).value == refused_before + 1
            extra.close()
            # Capacity frees when a connection leaves.
            keep[0].close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    replacement = _raw_stream(host, port)
                    replacement.send(
                        {"id": 2, "method": "ping", "params": {}}
                    )
                    reply = replacement.receive(timeout=5)
                    if reply is not None and reply["result"] == "pong":
                        replacement.close()
                        break
                    # None: refused, the server has not yet seen the close.
                    replacement.close()
                except (ProtocolError, OSError):
                    pass
                time.sleep(0.05)
            else:
                pytest.fail("slot never freed after a connection closed")
            keep[1].close()
        finally:
            sock.stop(drain=False)


class TestHealthAndLoad:
    def test_health_carries_connection_gauges(self):
        sock, _analysis, host, port = _start(
            max_in_flight=64, max_connections=100
        )
        try:
            stream = _raw_stream(host, port)
            stream.send({"id": 1, "method": "ping", "params": {}})
            stream.receive(timeout=10)
            health = sock._health()
            assert health["serving"] is True
            assert health["connections"] == 1
            assert health["in_flight_requests"] == 0
            assert health["queued_requests"] == 0
            assert health["executor_threads"] == sock.executor_threads
            assert health["max_in_flight"] == 64
            assert health["max_connections"] == 100
            stream.close()
        finally:
            sock.stop(drain=False)

    def test_server_load_rpc(self):
        sock, _analysis, host, port = _start()
        try:
            with PerfExplorerClient(host, port, timeout=10) as client:
                load = client.call("server_load")
            assert load["connections"] >= 1
            assert load["in_flight"] >= 0 and load["queued"] >= 0
        finally:
            sock.stop(drain=False)


class TestChaosShim:
    """The ``net:MODE:POINT`` matrix against the async core: every mode
    at every ``net.server.*`` point, recovered by the client's retry."""

    @pytest.mark.parametrize("mode,arg", [
        ("drop", 0.0), ("trunc", 5.0), ("delay", 0.3), ("reset", 0.0),
    ])
    def test_send_fault_recovered(self, mode, arg):
        sock, _analysis, host, port = _start()
        try:
            client = PerfExplorerClient(host, port, timeout=2.0, backoff=0.01)
            assert client.ping() == "pong"
            faults.arm_net("net.server.send", mode, arg=arg)
            assert client.ping() == "pong"
            client.close()
        finally:
            sock.stop(drain=False)

    @pytest.mark.parametrize("mode,arg", [
        ("delay", 0.3), ("reset", 0.0),
    ])
    def test_recv_fault_recovered(self, mode, arg):
        sock, _analysis, host, port = _start()
        disconnects_before = registry.counter(
            "server.client_disconnects"
        ).value
        try:
            client = PerfExplorerClient(host, port, timeout=2.0, backoff=0.01)
            assert client.ping() == "pong"
            faults.arm_net("net.server.recv", mode, arg=arg)
            assert client.ping() == "pong"
            if mode == "reset":
                assert registry.counter(
                    "server.client_disconnects"
                ).value > disconnects_before
            client.close()
        finally:
            sock.stop(drain=False)

    def test_env_spec_arms_server_point(self):
        faults.parse_spec("net:drop:net.server.send@1")
        sock, _analysis, host, port = _start()
        try:
            client = PerfExplorerClient(host, port, timeout=1.0, backoff=0.01)
            retries_before = registry.counter("explorer.client.retries").value
            assert client.ping() == "pong"  # dropped once, retried
            assert registry.counter(
                "explorer.client.retries"
            ).value == retries_before + 1
            client.close()
        finally:
            sock.stop(drain=False)

    def test_malformed_frame_counts_disconnect_not_error(self):
        sock, _analysis, host, port = _start()
        disconnects_before = registry.counter(
            "server.client_disconnects"
        ).value
        errors_before = registry.counter("server.client_errors").value
        try:
            raw = socket.create_connection((host, port), timeout=10)
            raw.sendall(b"this is not json\n")
            raw.settimeout(5)
            assert raw.recv(64) == b""
            raw.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if registry.counter(
                    "server.client_disconnects"
                ).value > disconnects_before:
                    break
                time.sleep(0.01)
            assert registry.counter(
                "server.client_disconnects"
            ).value == disconnects_before + 1
            assert registry.counter(
                "server.client_errors"
            ).value == errors_before
        finally:
            sock.stop(drain=False)


class TestIdleConnectionSoak:
    def test_500_idle_connections_bounded_threads(self):
        """The tentpole's reason to exist: 500 held connections must not
        cost 500 threads.  Every connection proves itself live with one
        ping; the server-side thread count stays at loop + executor,
        and a final burst of traffic still gets served."""
        sock, _analysis, host, port = _start(executor_threads=4)
        try:
            threads_before = threading.active_count()
            streams = []
            for i in range(500):
                stream = _raw_stream(host, port)
                stream.send({"id": i, "method": "ping", "params": {}})
                streams.append(stream)
            for stream in streams:
                assert stream.receive(timeout=30)["result"] == "pong"
            # Thread-per-connection would add ~500 here; the reactor
            # adds zero per connection (all server threads were started
            # before the soak).  Allow slack for interpreter background
            # threads, not for per-connection ones.
            assert threading.active_count() - threads_before < 20
            assert len(sock._connections) == 500
            with sock._idle:
                assert sock._in_flight == 0
            # Still responsive with the herd attached.
            probe = _raw_stream(host, port)
            probe.send({"id": 9999, "method": "ping", "params": {}})
            assert probe.receive(timeout=10)["result"] == "pong"
            probe.close()
            for stream in streams:
                stream.close()
        finally:
            sock.stop(drain=False)

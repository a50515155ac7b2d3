"""The PerfExplorer serving core (`SocketServer`).

One reactor thread multiplexes every client connection through a
:mod:`selectors`-based event loop — the same zero-dependency discipline
as the rest of the codebase.  A thread per connection would spend one
OS thread, one 8 MiB stack, and a scheduler slot per client even when
the client is idle; this core holds thousands of mostly-idle
connections on one thread:

* **non-blocking accept** — the listener is part of the selector; an
  accept burst drains in one loop pass, with ``max_connections``
  refusing (and counting) connections past the cap;
* **incremental frame assembly** — each connection owns a receive
  buffer; newline-framed requests (``protocol.py`` framing) are carved
  out as bytes arrive, so a half-written frame costs a buffer, not a
  blocked thread;
* **dispatch off the loop** — decoded requests go to a bounded
  worker-thread pool (``executor_threads``), so MiniSQL execution,
  numpy folds, and WAL shipping never stall the loop; replies come
  back through a completion queue and a wakeup pipe;
* **pipelining** — a client may send N requests before reading any
  reply; request *k*'s reply is buffered until replies ``0..k-1`` have
  been flushed, so per-connection reply order always matches request
  order even though the pool executes out of order;
* **admission control at the dispatch queue** — with ``max_in_flight``
  set, a request arriving while that many are queued-or-executing is
  shed with a retryable RETRY_LATER (``server.admission_shed_total``);
* **drain-on-stop** — ``stop()`` answers queued-but-not-dispatched
  requests with RETRY_LATER (``server.drain_shed_total``), so none of
  them runs after it; ``drain=True`` (the default) also lets dispatched
  requests finish and flushes every buffered reply before closing
  sockets;
* **slowloris reaping** — a connection stalled mid-frame past
  ``partial_frame_timeout`` (half a length prefix, then silence), or
  idle past ``idle_timeout`` with nothing in flight, is closed and
  counted in ``server.idle_reaped_total``.

Chaos hooks: receives pass ``faults.net_point(..., "net.server.recv")``
and every queued reply applies the armed ``net.server.send`` fault
(drop / trunc / delay / reset), so the chaos harness can fail the
server side of the wire at named points, as it does the client side.
"""

from __future__ import annotations

import collections
import selectors
import socket
import threading
import time
import traceback
from contextlib import nullcontext
from typing import Any, Optional

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _registry
from repro.obs.trace import tracer as _tracer
from repro.testing import faults

from .protocol import (
    ProtocolError, decode_message, encode_message, extract_trace_context,
)

#: Request logs are named after the server module the callers import,
#: not after this implementation module.
_log = get_logger("repro.explorer.server")

_RECV_CHUNK = 65536
#: Largest slice handed to one ``send()`` call — bounds how long a
#: single fat reply (a WAL segment ship, a big chart) can hog the loop
#: before other connections get their turn.
_SEND_CHUNK = 262144


class _Connection:
    """Per-connection state, owned exclusively by the reactor thread."""

    __slots__ = (
        "sock", "recv_buffer", "send_buffer", "next_seq", "next_reply",
        "ready", "open_requests", "last_recv", "partial_since", "closed",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.recv_buffer = bytearray()
        self.send_buffer = bytearray()
        self.next_seq = 0      # next request sequence number to assign
        self.next_reply = 0    # next reply sequence number to flush
        #: seq -> encoded reply bytes (None = server bug, close instead).
        self.ready: dict[int, Optional[bytes]] = {}
        self.open_requests = 0
        self.last_recv = time.monotonic()
        self.partial_since: Optional[float] = None
        self.closed = False


class SocketServer:
    """TCP front end: one event-loop thread multiplexing every client.

    ``start()``/``stop()`` bracket its life; every request goes through
    one dispatcher (:meth:`_execute`), which adopts the client's trace
    context and writes the request log and metrics.

    ``max_in_flight``
        Admission control: shed a request (RETRY_LATER, counted in
        ``server.admission_shed_total``) arriving while this many are
        queued or executing, instead of queueing behind work the server
        cannot keep up with.
    ``executor_threads``
        Size of the bounded worker pool requests are dispatched onto
        (default 8; the loop itself never executes a handler).
    ``max_connections``
        Refuse (close immediately, count in
        ``server.connections_refused_total``) connections past this
        many concurrent clients.
    ``idle_timeout`` / ``partial_frame_timeout``
        Reap connections idle past / stalled mid-frame past these many
        seconds (``server.idle_reaped_total``).  ``idle_timeout`` is
        off by default — analysis clients legitimately sit idle between
        requests; the partial-frame guard is on (30 s) because half a
        frame followed by silence is never legitimate.

    With ``telemetry_port`` set (0 = any free port), ``start()`` also
    mounts a :class:`~repro.obs.telemetry.TelemetryServer`; ``/healthz``
    carries live connection and dispatch-queue gauges.
    """

    def __init__(
        self,
        server: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry_port: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        executor_threads: int = 8,
        max_connections: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        partial_frame_timeout: Optional[float] = 30.0,
    ):
        self.analysis = server
        self.max_in_flight = max_in_flight
        self.executor_threads = max(1, int(executor_threads))
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.partial_frame_timeout = partial_frame_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.address = self._listener.getsockname()
        self._telemetry_port = telemetry_port
        self._telemetry = None
        self.telemetry_address: Optional[tuple[str, int]] = None

        self._selector: Optional[selectors.BaseSelector] = None
        self._connections: dict[socket.socket, _Connection] = {}
        #: Loop wakeup pipe: workers push completions and poke this so a
        #: select() blocked on quiet sockets delivers replies immediately.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._completed: collections.deque = collections.deque()

        # Dispatch accounting, shared with the workers.  _in_flight
        # counts admitted requests (queued + executing) — the quantity
        # admission control bounds and stop(drain=True) waits on; the
        # queue's length alone separates "dispatched" from "queued".
        self._in_flight = 0
        self._idle = threading.Condition()
        self._queue: collections.deque = collections.deque()
        self._workers: list[threading.Thread] = []
        self._workers_live = False

        self._running = False
        self._draining = False
        self._stopped = False
        self._drained = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._last_sweep = 0.0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        self._running = True
        if self._telemetry_port is not None:
            from repro.obs.telemetry import TelemetryServer

            self._telemetry = TelemetryServer(
                host=self.address[0], port=self._telemetry_port,
                health=self._health,
            )
            self.telemetry_address = self._telemetry.start()
            _log.info(
                "telemetry_listening",
                host=self.telemetry_address[0],
                port=self.telemetry_address[1],
            )
        # Expose the dispatch load through the analysis server so the
        # lightweight ``server_load`` RPC (client least-loaded routing)
        # reports this front end's queue depth and connection count.
        setattr(self.analysis, "load_probe", self._load_snapshot)
        self._workers_live = True
        for index in range(self.executor_threads):
            worker = threading.Thread(
                target=self._worker_loop, name=f"explorer-exec-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._loop_thread = threading.Thread(
            target=self._loop, name="explorer-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting and answer queued-but-not-dispatched requests
        with RETRY_LATER, so none of them runs after this returns.  With
        ``drain`` (default), also let every dispatched request finish
        and flush all buffered replies before sockets close."""
        if self._stopped:
            return
        self._stopped = True
        deadline = time.monotonic() + timeout
        # Queued-not-dispatched requests were never executed, so the
        # client may retry them — even mutating ones.  Pop them all in
        # either mode; _ingest reads _draining under the same lock, so
        # no request is queued after this.
        with self._idle:
            self._draining = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._in_flight -= len(abandoned)
            if self._in_flight == 0:
                self._idle.notify_all()
        for conn, seq, request in abandoned:
            _registry.counter("server.drain_shed_total").inc()
            self._completed.append(
                (conn, seq, _retry_later_bytes(request, "shutting down"))
            )
        self._wake()
        if drain:
            with self._idle:
                while self._in_flight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        _log.warning(
                            "shutdown_timeout", in_flight=self._in_flight
                        )
                        break
                    self._idle.wait(remaining)
            # Completions are delivered by the loop; wait for every
            # buffered reply to reach the kernel before closing.
            self._wake()
            self._drained.wait(timeout=max(0.0, deadline - time.monotonic()))
        self._running = False
        self._wake()
        with self._idle:
            self._workers_live = False
            self._idle.notify_all()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None
        # The loop closes everything on exit; if it is wedged (or never
        # ran), fall back to closing here so restarts on the same
        # address never block on lingering sockets.
        self._close_listener()
        for conn in list(self._connections.values()):
            _force_close(conn.sock)
        self._connections.clear()
        try:
            self._wake_r.close()
            self._wake_w.close()
        except OSError:
            pass

    # -- health / load --------------------------------------------------------

    def _health(self) -> dict:
        with self._idle:
            in_flight = self._in_flight
            queued = len(self._queue)
        health = {
            "serving": self._running,
            "address": f"{self.address[0]}:{self.address[1]}",
            "in_flight_requests": in_flight,
            "connections": len(self._connections),
            "queued_requests": queued,
            "executor_threads": self.executor_threads,
        }
        if self.max_in_flight is not None:
            health["max_in_flight"] = self.max_in_flight
        if self.max_connections is not None:
            health["max_connections"] = self.max_connections
        replica = getattr(self.analysis, "replica", None)
        if replica is not None:
            records, seconds = replica.replication_lag()
            health["replication"] = {
                "role": "replica",
                "state": replica.state,
                "lag_records": records,
                "lag_seconds": seconds,
            }
        return health

    def _load_snapshot(self) -> dict:
        """The ``server_load`` RPC payload: how busy this front end is."""
        with self._idle:
            return {
                "in_flight": self._in_flight,
                "queued": len(self._queue),
                "connections": len(self._connections),
            }

    # -- reactor --------------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full (loop already pending) or torn down

    def _loop(self) -> None:
        try:
            while self._running:
                if self._draining:
                    self._close_listener()
                events = self._selector.select(timeout=0.1)
                for key, mask in events:
                    if key.data == "accept":
                        self._accept_ready()
                    elif key.data == "wake":
                        self._drain_wakeups()
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_READ:
                            self._readable(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._writable(conn)
                self._deliver_completions()
                self._sweep_timeouts()
                if self._draining:
                    self._check_drained()
        except Exception:  # pragma: no cover - reactor bug backstop
            _registry.counter("server.client_errors").inc()
            _log.error("event_loop_error", traceback=traceback.format_exc())
        finally:
            self._close_listener()
            for conn in list(self._connections.values()):
                self._close(conn)
            try:
                self._selector.close()
            except OSError:
                pass

    def _close_listener(self) -> None:
        if self._listener is None:
            return
        listener, self._listener = self._listener, None
        if self._selector is not None:
            try:
                self._selector.unregister(listener)
            except (KeyError, ValueError, OSError):
                pass
        _force_close(listener)

    def _accept_ready(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                client, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self._draining or not self._running:
                _force_close(client)
                continue
            if (
                self.max_connections is not None
                and len(self._connections) >= self.max_connections
            ):
                _registry.counter("server.connections_refused_total").inc()
                _log.warning(
                    "connection_refused", max_connections=self.max_connections
                )
                _force_close(client)
                continue
            client.setblocking(False)
            conn = _Connection(client)
            self._connections[client] = conn
            self._selector.register(client, selectors.EVENT_READ, conn)
            _registry.gauge("server.open_connections").set(
                len(self._connections)
            )

    def _drain_wakeups(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _readable(self, conn: _Connection) -> None:
        try:
            faults.net_point(conn.sock, "net.server.recv")
        except ConnectionResetError as exc:
            self._disconnect(conn, str(exc))
            return
        while not conn.closed:
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._disconnect(conn, str(exc))
                return
            if not chunk:
                if conn.recv_buffer:
                    self._disconnect(conn, "connection closed mid-frame")
                else:
                    self._close(conn)  # clean EOF
                return
            conn.recv_buffer += chunk
            if len(chunk) < _RECV_CHUNK:
                break
        if conn.closed:
            return
        conn.last_recv = time.monotonic()
        self._parse_frames(conn)

    def _parse_frames(self, conn: _Connection) -> None:
        while not conn.closed:
            newline = conn.recv_buffer.find(b"\n")
            if newline < 0:
                break
            line = bytes(conn.recv_buffer[:newline])
            del conn.recv_buffer[: newline + 1]
            try:
                request = decode_message(line)
            except ProtocolError as exc:
                self._disconnect(conn, str(exc))
                return
            self._ingest(conn, request)
        conn.partial_since = (
            time.monotonic() if conn.recv_buffer and not conn.closed else None
        )

    def _ingest(self, conn: _Connection, request: dict) -> None:
        """Assign the next reply slot and dispatch (or shed) one request."""
        seq = conn.next_seq
        conn.next_seq += 1
        conn.open_requests += 1
        with self._idle:
            draining = self._draining
            admitted = not draining and (
                self.max_in_flight is None
                or self._in_flight < self.max_in_flight
            )
            if admitted:
                self._in_flight += 1
                self._queue.append((conn, seq, request))
                self._idle.notify()
        if draining:
            _registry.counter("server.drain_shed_total").inc()
            self._ready(conn, seq, _retry_later_bytes(request, "shutting down"))
        elif not admitted:
            _registry.counter("server.admission_shed_total").inc()
            _log.warning(
                "request_shed",
                method=request.get("method"),
                max_in_flight=self.max_in_flight,
            )
            self._ready(
                conn, seq,
                _retry_later_bytes(request, "server at max in-flight requests"),
            )

    def _ready(self, conn: _Connection, seq: int, payload: Optional[bytes]) -> None:
        """Record reply ``seq`` and flush every in-order completed reply."""
        if conn.closed:
            return
        conn.ready[seq] = payload
        while conn.next_reply in conn.ready:
            data = conn.ready.pop(conn.next_reply)
            conn.next_reply += 1
            conn.open_requests -= 1
            if data is None:
                # A response the protocol could not encode: the worker
                # already counted the bug.  Close the connection, so the
                # client sees a transport error instead of waiting for a
                # reply that will never come.
                self._close(conn)
                return
            if not self._enqueue_send(conn, data):
                return

    def _enqueue_send(self, conn: _Connection, data: bytes) -> bool:
        """Queue one reply, applying any armed ``net.server.send`` fault.

        Returns False when the fault killed the connection."""
        fault = faults.net_fire("net.server.send")
        if fault is not None:
            if fault.mode == "drop":
                return True
            if fault.mode == "trunc":
                data = data[: int(fault.arg)]
            elif fault.mode == "reset":
                self._abort(conn)
                return False
            elif fault.mode == "delay":
                time.sleep(fault.arg)
        conn.send_buffer += data
        self._want_write(conn, True)
        self._writable(conn)  # opportunistic flush while the buffer is hot
        return not conn.closed

    def _writable(self, conn: _Connection) -> None:
        if conn.closed:
            return
        if not conn.send_buffer:
            self._want_write(conn, False)
            return
        try:
            view = memoryview(conn.send_buffer)
            try:
                sent = conn.sock.send(view[:_SEND_CHUNK])
            finally:
                view.release()
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._disconnect(conn, str(exc))
            return
        del conn.send_buffer[:sent]
        if not conn.send_buffer:
            self._want_write(conn, False)

    def _want_write(self, conn: _Connection, writable: bool) -> None:
        if conn.closed:
            return
        events = selectors.EVENT_READ
        if writable:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _deliver_completions(self) -> None:
        while True:
            try:
                conn, seq, payload = self._completed.popleft()
            except IndexError:
                return
            self._ready(conn, seq, payload)

    def _sweep_timeouts(self) -> None:
        if self.idle_timeout is None and self.partial_frame_timeout is None:
            return
        now = time.monotonic()
        if now - self._last_sweep < 0.05:
            return
        self._last_sweep = now
        for conn in list(self._connections.values()):
            if conn.closed:
                continue
            if (
                self.partial_frame_timeout is not None
                and conn.partial_since is not None
                and now - conn.partial_since > self.partial_frame_timeout
            ):
                self._reap(conn, "partial_frame")
            elif (
                self.idle_timeout is not None
                and conn.open_requests == 0
                and not conn.send_buffer
                and now - conn.last_recv > self.idle_timeout
            ):
                self._reap(conn, "idle")

    def _reap(self, conn: _Connection, reason: str) -> None:
        _registry.counter("server.idle_reaped_total").inc()
        _log.info("connection_reaped", reason=reason)
        self._close(conn)

    def _check_drained(self) -> None:
        if self._drained.is_set() or self._completed:
            return
        with self._idle:
            busy = self._in_flight
        if busy:
            return
        for conn in self._connections.values():
            if conn.send_buffer or conn.ready:
                return
        self._drained.set()

    # -- teardown of one connection -------------------------------------------

    def _disconnect(self, conn: _Connection, reason: str) -> None:
        """Transport-level ending: client went away, reset, bad frame."""
        _registry.counter("server.client_disconnects").inc()
        _log.info("client_disconnect", error=reason)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._forget(conn)
        _force_close(conn.sock)

    def _abort(self, conn: _Connection) -> None:
        """RST teardown (chaos shim's reset mode)."""
        conn.closed = True
        self._forget(conn)
        faults.reset_socket(conn.sock)

    def _forget(self, conn: _Connection) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        self._connections.pop(conn.sock, None)
        _registry.gauge("server.open_connections").set(len(self._connections))

    # -- worker pool ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._idle:
                while not self._queue and self._workers_live:
                    self._idle.wait()
                if not self._queue:
                    return  # shutdown
                conn, seq, request = self._queue.popleft()
            payload = self._execute(request)
            with self._idle:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.notify_all()
            self._completed.append((conn, seq, payload))
            self._wake()

    def _execute(self, request: dict) -> Optional[bytes]:
        """Dispatch one request on a worker: trace-context adoption,
        structured request log with latency and result size, metrics.
        Returns the encoded reply, or None on an unencodable response
        (a server bug — counted, logged, and fatal to the connection)."""
        request_id = request.get("id")
        method = request.get("method", "")
        remote = extract_trace_context(request) if _tracer.enabled else None
        context = (
            _tracer.context(remote[0], remote[1])
            if remote is not None else nullcontext()
        )
        started = time.perf_counter()
        with context:
            with _tracer.span(f"server.{method or 'unknown'}"):
                try:
                    result = self.analysis.handle_request(
                        method, request.get("params", {}) or {}
                    )
                    response = {"id": request_id, "result": result}
                    status = "ok"
                except Exception as exc:  # deliberate: errors go to the client
                    response = {
                        "id": request_id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(limit=3),
                    }
                    status = "error"
        try:
            encoded = encode_message(response)
        except Exception:
            # The handler's *result* cannot cross the wire — a server
            # bug that must never vanish silently.
            _registry.counter("server.client_errors").inc()
            _log.error("client_loop_error", traceback=traceback.format_exc())
            return None
        latency_ms = round((time.perf_counter() - started) * 1000.0, 3)
        _registry.counter("server.requests").inc()
        if status == "error":
            _registry.counter("server.errors").inc()
        _registry.histogram("server.request_seconds").observe(
            latency_ms / 1000.0
        )
        _log.info(
            "request",
            method=method,
            id=request_id,
            status=status,
            latency_ms=latency_ms,
            result_bytes=len(encoded),
        )
        return encoded


def _retry_later_bytes(request: dict, reason: str) -> bytes:
    return encode_message(
        {
            "id": request.get("id"),
            "error": f"RETRY_LATER: {reason}",
            "retry_later": True,
        }
    )


def _force_close(sock: Optional[socket.socket]) -> None:
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass

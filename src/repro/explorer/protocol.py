"""Wire protocol for the PerfExplorer client/server split.

Newline-delimited JSON-RPC-style messages over TCP::

    {"id": 1, "method": "cluster_trial", "params": {"trial": 3, "k": 2}}
    {"id": 1, "result": {...}}
    {"id": 1, "error": "no such trial"}

Chosen for the same reasons the paper's authors chose open standards
(§4): self-describing, language-neutral, trivially inspectable.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional

from repro.testing import faults


class ProtocolError(RuntimeError):
    """Raised for malformed frames or protocol violations."""


class ConnectTimeout(ProtocolError):
    """Raised when establishing the TCP connection itself fails or times
    out — as opposed to a :class:`ProtocolError` mid-call, which means a
    live server sent something wrong.  Callers use the distinction to
    tell a dead/unreachable server from a misbehaving one.

    ``addresses`` lists every ``host:port`` the caller attempted, so a
    failover client's timeout names the whole endpoint set it exhausted
    rather than just the last one tried.
    """

    def __init__(self, message: str = "", addresses: Optional[list[str]] = None):
        super().__init__(message)
        self.addresses: list[str] = list(addresses or [])


class RetryLater(ProtocolError):
    """Server-side admission control shed this request before running
    it; the caller may safely retry after a backoff — even a mutating
    call, since a shed request was never dispatched."""


#: RPC methods that are safe to transparently retry after a transport
#: failure — and safe to serve from a read replica: they only read the
#: archive, so re-executing them cannot duplicate side effects.
#: Mutating calls (``cluster_trial`` with ``save=True``,
#: ``run_workflow``) go to the primary and surface errors to the caller.
READ_ONLY_METHODS = frozenset({
    "ping", "get_stats",
    "list_applications", "list_experiments", "list_trials",
    "list_metrics", "list_events", "list_analyses", "get_analysis",
    "describe_event", "correlate_events",
    "speedup_chart", "correlation_matrix", "group_fraction_chart",
    "imbalance_chart", "replication_status", "server_load",
})


def attach_trace_context(
    payload: dict[str, Any], context: Optional[tuple[str, Optional[str]]]
) -> dict[str, Any]:
    """Stamp a request with the caller's (trace_id, span_id).

    Server-side spans opened under :func:`extract_trace_context` then
    share the client's trace id and nest under its request span — one
    timeline across the process boundary.
    """
    if context is not None:
        payload["trace"] = {"trace_id": context[0], "parent_id": context[1]}
    return payload


def extract_trace_context(
    payload: dict[str, Any],
) -> Optional[tuple[str, Optional[str]]]:
    """Pull a propagated (trace_id, parent_id) off a request, if any."""
    trace = payload.get("trace")
    if not isinstance(trace, dict) or "trace_id" not in trace:
        return None
    return (str(trace["trace_id"]), trace.get("parent_id"))


def encode_message(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame is not a JSON object")
    return payload


class MessageStream:
    """Newline-framed message reader/writer over one socket.

    ``fault_point`` tags the stream for the network chaos shim
    (:mod:`repro.testing.faults`): sends route through
    ``faults.net_send(..., "<tag>.send")`` and receives pass
    ``faults.net_point(..., "<tag>.recv")``, so tests can drop,
    truncate, delay, or RST traffic at either side of the wire by
    name.  Untagged streams skip the shim entirely.
    """

    def __init__(self, sock: socket.socket, fault_point: Optional[str] = None):
        self.sock = sock
        self.fault_point = fault_point
        self._buffer = b""

    def send(self, payload: dict[str, Any]) -> None:
        data = encode_message(payload)
        if self.fault_point is None:
            self.sock.sendall(data)
        else:
            faults.net_send(self.sock, data, self.fault_point + ".send")

    def receive(self, timeout: Optional[float] = None) -> Optional[dict[str, Any]]:
        """Read one message; None on clean EOF."""
        if self.fault_point is not None:
            faults.net_point(self.sock, self.fault_point + ".recv")
        self.sock.settimeout(timeout)
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return decode_message(line)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

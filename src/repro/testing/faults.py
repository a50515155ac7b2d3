"""Deterministic fault injection: named crash points and an IO shim.

Durability claims are only as good as the failures they were tested
against, so the WAL code is laced with *named crash points* — calls to
:func:`crash_point` at every interesting moment of the log/checkpoint
protocol ("after the commit record", "between checkpoint rename and WAL
truncation", ...).  In production these are a dict lookup and return.
A test arms one by name and the process dies there with ``os._exit``,
exactly like ``kill -9`` — no atexit handlers, no buffered writes
beyond what already reached the OS.

Arming works two ways:

* programmatically: ``faults.arm("wal.commit.after_record")`` (same
  process, used by the torn-tail property test);
* via the ``REPRO_FAULTS`` environment variable, read at import time,
  so subprocess crash-matrix tests arm the child without code changes::

      REPRO_FAULTS="wal.commit.after_record"        # die at first hit
      REPRO_FAULTS="wal.append.payload@3"           # die at third hit
      REPRO_FAULTS="torn:wal.append.payload:17"     # write 17 bytes, die
      REPRO_FAULTS="point-a,point-b"                # several, comma-split

The ``torn:`` form drives the injectable write shim: the WAL routes
every file write through :func:`write` and every fsync through
:func:`fsync`, so a torn-write fault flushes a prefix of the record to
the OS and then kills the process — producing exactly the
partially-written tail a real crash can leave.

Network faults work the same way one layer up: the wire protocol
routes every socket send through :func:`net_send` and marks every
receive with :func:`net_point`, each tagged with a named point
(``net.client.send``, ``net.server.recv``, ...).  A test arms a fault
and the shim misbehaves exactly once, at exactly that point::

    faults.arm_net("net.client.send", "drop")          # swallow a message
    faults.arm_net("net.server.send", "trunc", arg=7)  # send 7 bytes, stop
    faults.arm_net("net.client.recv", "delay", arg=0.5)
    faults.arm_net("net.server.send", "reset")         # RST the connection

or via ``REPRO_FAULTS`` for subprocess harnesses::

    REPRO_FAULTS="net:drop:net.client.send@2"     # drop the 2nd send
    REPRO_FAULTS="net:trunc:net.server.send:7"    # truncate to 7 bytes
    REPRO_FAULTS="net:reset:net.server.send"
"""

from __future__ import annotations

import os
import struct as _struct
import time as _time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Optional

if TYPE_CHECKING:  # _reset imports it: the WAL loads this module for crash points
    import socket as _socket

NET_MODES = ("drop", "delay", "trunc", "reset")

#: Exit status used when a crash point fires; chosen to match the shell
#: status of a SIGKILLed process so harnesses treat both alike.
CRASH_EXIT_STATUS = 137

ENV_VAR = "REPRO_FAULTS"


@dataclass
class _Fault:
    """One armed fault: fires on the ``hits``-th visit to ``point``."""

    point: str
    hits: int = 1
    torn_bytes: Optional[int] = None  # None = plain crash, N = torn write
    seen: int = 0


@dataclass
class _NetFault:
    """One armed network fault at a named wire-protocol point."""

    point: str
    mode: str  # one of NET_MODES
    hits: int = 1
    arg: float = 0.0  # delay seconds, or truncate byte count
    repeat: bool = False  # fire on every visit from the hits-th on
    seen: int = 0

    def fires(self) -> bool:
        self.seen += 1
        if self.repeat:
            return self.seen >= self.hits
        return self.seen == self.hits


_armed: dict[str, _Fault] = {}
_net_armed: dict[str, _NetFault] = {}


def arm(point: str, hits: int = 1, torn_bytes: Optional[int] = None) -> None:
    """Arm ``point`` to crash the process on its ``hits``-th visit."""
    _armed[point] = _Fault(point=point, hits=hits, torn_bytes=torn_bytes)


def disarm(point: str) -> None:
    _armed.pop(point, None)


def disarm_all() -> None:
    _armed.clear()
    _net_armed.clear()


def armed_points() -> list[str]:
    return sorted(_armed) + sorted(_net_armed)


def arm_net(
    point: str,
    mode: str,
    hits: int = 1,
    arg: float = 0.0,
    repeat: bool = False,
) -> None:
    """Arm a network fault: misbehave at ``point`` on its ``hits``-th visit."""
    if mode not in NET_MODES:
        raise ValueError(f"unknown network fault mode {mode!r}")
    _net_armed[point] = _NetFault(point=point, mode=mode, hits=hits, arg=arg, repeat=repeat)


def disarm_net(point: str) -> None:
    _net_armed.pop(point, None)


def _parse_net_item(item: str) -> None:
    # net:MODE:POINT[:ARG][@HITS]
    _, _, rest = item.partition(":")
    mode, _, rest = rest.partition(":")
    hits = 1
    if "@" in rest:
        rest, _, count = rest.rpartition("@")
        hits = int(count)
    arg = 0.0
    if mode in ("delay", "trunc") and ":" in rest:
        rest, _, raw = rest.rpartition(":")
        arg = float(raw)
    if not rest or mode not in NET_MODES:
        raise ValueError(f"malformed network fault spec {item!r}")
    arm_net(rest, mode, hits=hits, arg=arg)


def parse_spec(spec: str) -> None:
    """Arm every fault in a comma-separated ``REPRO_FAULTS`` spec."""
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("net:"):
            _parse_net_item(item)
            continue
        torn_bytes = None
        if item.startswith("torn:"):
            _, _, rest = item.partition(":")
            point, _, nbytes = rest.rpartition(":")
            if not point:
                raise ValueError(f"malformed torn fault spec {item!r}")
            torn_bytes = int(nbytes)
            item = point
        hits = 1
        if "@" in item:
            item, _, count = item.rpartition("@")
            hits = int(count)
        arm(item, hits=hits, torn_bytes=torn_bytes)


def reload_from_env() -> None:
    """(Re)arm from ``REPRO_FAULTS``; cheap no-op when unset."""
    spec = os.environ.get(ENV_VAR)
    if spec:
        parse_spec(spec)


def _die() -> None:
    # os._exit skips atexit/finally/buffers — the closest a test can get
    # to kill -9 while still choosing the exact instruction it dies at.
    os._exit(CRASH_EXIT_STATUS)


def crash_point(point: str) -> None:
    """Die here if ``point`` is armed (and its hit count is reached)."""
    fault = _armed.get(point)
    if fault is None or fault.torn_bytes is not None:
        return
    fault.seen += 1
    if fault.seen >= fault.hits:
        _die()


def write(fh: IO[bytes], data: bytes, point: str) -> int:
    """Write ``data`` through the fault shim.

    A ``torn:`` fault armed on ``point`` writes only its byte-count
    prefix, flushes it to the OS so the torn tail really lands on disk,
    and kills the process.
    """
    fault = _armed.get(point)
    if fault is not None and fault.torn_bytes is not None:
        fault.seen += 1
        if fault.seen >= fault.hits:
            fh.write(data[: fault.torn_bytes])
            fh.flush()
            os.fsync(fh.fileno())
            _die()
    return fh.write(data)


def fsync(fh: IO[bytes], point: str = "fsync") -> None:
    """fsync through the fault shim (a crash point on either side)."""
    crash_point(f"{point}.before")
    os.fsync(fh.fileno())
    crash_point(f"{point}.after")


def _reset(sock: "_socket.socket") -> None:
    # SO_LINGER with a zero timeout makes close() send RST instead of
    # FIN — the peer sees ECONNRESET, exactly like a crashed box.
    import socket as _socket

    try:
        sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_LINGER, _struct.pack("ii", 1, 0))
    except OSError:
        pass
    sock.close()


def net_fire(point: Optional[str]) -> Optional[_NetFault]:
    """The armed fault at ``point`` if this visit fires it, else None.

    Consumes one hit.  Callers that manage their own buffers (the
    event-loop server writes through a send queue rather than a
    blocking ``sendall``) use this to apply drop/trunc/delay/reset
    themselves at the moment a message is queued.
    """
    fault = _net_armed.get(point) if point else None
    if fault is not None and fault.fires():
        return fault
    return None


def reset_socket(sock: "_socket.socket") -> None:
    """Close ``sock`` with an RST (zero-linger close), as a crashed
    peer would — the public face of the shim's reset mode."""
    _reset(sock)


def net_send(sock: "_socket.socket", data: bytes, point: Optional[str]) -> None:
    """Send ``data`` on ``sock`` through the network fault shim.

    An armed fault at ``point`` can *drop* the message entirely (the
    caller believes it was sent), *trunc*ate it to ``arg`` bytes (a
    half-written frame, as from a crash mid-send), *delay* it by
    ``arg`` seconds, or *reset* the connection with an RST.
    """
    fault = net_fire(point)
    if fault is not None:
        if fault.mode == "drop":
            return
        if fault.mode == "trunc":
            sock.sendall(data[: int(fault.arg)])
            return
        if fault.mode == "reset":
            _reset(sock)
            raise ConnectionResetError(f"connection reset by fault shim at {point}")
        _time.sleep(fault.arg)  # delay, then deliver
    sock.sendall(data)


def net_point(sock: "_socket.socket", point: Optional[str]) -> None:
    """Receive-side hook: an armed fault can delay or reset here."""
    fault = net_fire(point)
    if fault is not None:
        if fault.mode == "reset":
            _reset(sock)
            raise ConnectionResetError(f"connection reset by fault shim at {point}")
        if fault.mode == "delay":
            _time.sleep(fault.arg)


# Arm any faults requested by the environment as soon as the module is
# imported — subprocess harnesses set REPRO_FAULTS before exec.
reload_from_env()

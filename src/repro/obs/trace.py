"""Zero-dependency tracing: spans, a per-process ring buffer, exporters.

PerfDMF is a framework *for* performance data, so its own execution
should be inspectable with the same rigour.  This module provides the
span primitive every layer instruments itself with::

    from repro.obs import span

    with span("minisql.execute", sql=sql):
        ...

Design constraints (mirrors the ROOT continuous-benchmarking argument,
arXiv:1812.03149, that perf telemetry must be machine-readable):

* **always compiled, cheap when off** — the tracer starts disabled and
  the disabled path of :func:`span` is one attribute check plus a
  shared no-op context manager; the E11 benchmark guards the overhead
  at <5% on the E2 query workload;
* **thread/process-aware ids** — span ids embed the pid and thread id,
  so spans recorded in bulk-ingest worker processes remain unambiguous
  after they are shipped back to the coordinator
  (:meth:`Tracer.adopt`);
* **standard output formats** — JSON-lines for scripting and the
  Chrome ``chrome://tracing`` / Perfetto trace-event format for
  timeline views (the Pipit angle, arXiv:2306.11177).

Spans are stored as plain dicts in a bounded deque: picklable across
process boundaries, trivially serialisable, no retained object graphs.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Iterable, Optional

#: Finished-span ring-buffer capacity per process.  Old spans fall off
#: the back; sized for a full bulk ingest plus slack.
RING_CAPACITY = 8192

_span_counter = itertools.count(1)


def _new_span_id() -> str:
    """Process/thread-qualified span id: ``pid-tid-seq`` in hex."""
    return (
        f"{os.getpid():x}-{threading.get_ident():x}-{next(_span_counter):x}"
    )


def new_trace_id() -> str:
    import uuid

    return uuid.uuid4().hex[:16]


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        """Attribute sink; discards everything."""


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A live span: context manager that records itself on exit."""

    __slots__ = ("tracer", "record", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]):
        self.tracer = tracer
        trace_id, parent_id = tracer._current_ids()
        self.record: dict[str, Any] = {
            "name": name,
            "trace_id": trace_id,
            "span_id": _new_span_id(),
            "parent_id": parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "start": time.time(),
            "duration": 0.0,
            "attributes": attributes,
        }
        self._t0 = 0.0

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span after it was opened."""
        self.record["attributes"].update(attributes)

    @property
    def span_id(self) -> str:
        return self.record["span_id"]

    @property
    def trace_id(self) -> str:
        return self.record["trace_id"]

    def __enter__(self) -> "_ActiveSpan":
        self.tracer._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record["duration"] = time.perf_counter() - self._t0
        if exc_type is not None:
            self.record["attributes"].setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return None


class _RemoteContext:
    """Context manager installing a remote (trace_id, parent_id) pair so
    locally opened spans nest under a span from another process or
    connection — the PerfExplorer client→server propagation path."""

    __slots__ = ("tracer", "ids")

    def __init__(self, tracer: "Tracer", trace_id: str, parent_id: Optional[str]):
        self.tracer = tracer
        self.ids = (trace_id, parent_id)

    def __enter__(self) -> "_RemoteContext":
        self.tracer._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        return None

    @property
    def span_id(self) -> Optional[str]:
        return self.ids[1]

    @property
    def trace_id(self) -> str:
        return self.ids[0]


class Tracer:
    """Per-process tracer: span stack per thread, one finished-span ring."""

    def __init__(self, capacity: int = RING_CAPACITY):
        self.enabled = False
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- span API ------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span; returns a context manager.

        The disabled path returns a shared no-op object so callers can
        instrument unconditionally.
        """
        if not self.enabled:
            return _NOOP
        return _ActiveSpan(self, name, attributes)

    def record(self, name: str, duration: float, **attributes: Any) -> None:
        """Append an already-timed span (no context-manager scope).

        Used on hot paths that measured ``duration`` themselves; the
        span parents under the calling thread's current span.
        """
        if not self.enabled:
            return
        trace_id, parent_id = self._current_ids()
        rec = {
            "name": name,
            "trace_id": trace_id,
            "span_id": _new_span_id(),
            "parent_id": parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "start": time.time() - duration,
            "duration": duration,
            "attributes": attributes,
        }
        with self._lock:
            self._ring.append(rec)

    def context(self, trace_id: str, parent_id: Optional[str] = None) -> _RemoteContext:
        """Attach an externally propagated trace context (see module doc)."""
        return _RemoteContext(self, trace_id, parent_id)

    def current_context(self) -> Optional[tuple[str, Optional[str]]]:
        """(trace_id, span_id) of the innermost active span, for
        propagation over a wire protocol; None when no span is open."""
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        return (top.trace_id, top.span_id)

    # -- collected spans -------------------------------------------------------

    def finished(self) -> list[dict[str, Any]]:
        """Snapshot of the finished-span ring (oldest first)."""
        with self._lock:
            return list(self._ring)

    def drain(self) -> list[dict[str, Any]]:
        """Return and clear the finished spans (worker shipping helper)."""
        with self._lock:
            spans = list(self._ring)
            self._ring.clear()
        return spans

    def adopt(self, spans: Iterable[dict[str, Any]]) -> int:
        """Merge spans recorded elsewhere (another process) into the ring."""
        count = 0
        with self._lock:
            for rec in spans:
                self._ring.append(dict(rec))
                count += 1
        return count

    # -- exporters -------------------------------------------------------------

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """One JSON object per line; returns the number of spans written."""
        spans = self.finished()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        return len(spans)

    def export_chrome(self, path: str | os.PathLike) -> int:
        """Chrome trace-event format (load via ``chrome://tracing`` or
        https://ui.perfetto.dev).  Returns the number of events written."""
        events = [chrome_event(rec) for rec in self.finished()]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=str)
        return len(events)

    # -- internals ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_ids(self) -> tuple[str, Optional[str]]:
        stack = self._stack()
        if stack:
            top = stack[-1]
            return (top.trace_id, top.span_id)
        return (new_trace_id(), None)

    def _push(self, span_: _ActiveSpan) -> None:
        self._stack().append(span_)

    def _pop(self, span_: _ActiveSpan) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_:
            stack.pop()
        with self._lock:
            self._ring.append(span_.record)


def chrome_event(rec: dict[str, Any]) -> dict[str, Any]:
    """One span dict → one complete ('X') Chrome trace event."""
    args = dict(rec.get("attributes") or {})
    args["span_id"] = rec.get("span_id")
    if rec.get("parent_id"):
        args["parent_id"] = rec["parent_id"]
    args["trace_id"] = rec.get("trace_id")
    return {
        "name": rec["name"],
        "cat": rec["name"].split(".", 1)[0],
        "ph": "X",
        "ts": rec["start"] * 1e6,
        "dur": rec["duration"] * 1e6,
        "pid": rec.get("pid", 0),
        "tid": rec.get("tid", 0),
        "args": args,
    }


#: The process-global tracer every layer shares.
tracer = Tracer()


def get_tracer() -> Tracer:
    return tracer


def span(name: str, **attributes: Any):
    """Module-level shorthand for ``get_tracer().span(...)``."""
    if not tracer.enabled:
        return _NOOP
    return _ActiveSpan(tracer, name, attributes)


def traced(name: str):
    """Decorator: run the function under a span named ``name``.

    The disabled path adds a single attribute check per call.
    """
    import functools

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with _ActiveSpan(tracer, name, {}):
                return fn(*args, **kwargs)

        return wrapper

    return decorator

"""Benchmark-side tracing: spans around public calls into layers that have
none of their own, and a sink that drains the program's span ring.

The program's tracer keeps finished spans in a bounded ring
(``RING_CAPACITY`` per process) and silently drops the oldest when it is
full, so a traced run drains it on a timer and fails if a drain ever
comes back full.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obs.trace import RING_CAPACITY, tracer

#: Seconds between drains; at the busiest workload (browse, about 8,000
#: server spans a second) the ring would fill in about one second.
DRAIN_INTERVAL = 0.1


def wrap(owner: Any, attr: str, name: str,
         measure: Optional[Callable[[Any], dict]] = None) -> None:
    """Replace ``owner.attr`` with a version that runs under span ``name``.

    ``measure(result)`` may return attributes recorded on the span (a
    byte or row count).  With the tracer off the wrapper costs one
    attribute check.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if measure is not None:
                span.set(**measure(result))
            return result

    setattr(owner, attr, traced)


class SpanSink:
    """Drains the tracer ring into memory until :meth:`stop`."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.dropped = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="span-drain", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        batch = tracer.drain()
        if len(batch) >= RING_CAPACITY:
            self.dropped = True  # the ring was full: older spans are gone
        self.spans.extend(batch)

    def _run(self) -> None:
        while not self._stop.wait(DRAIN_INTERVAL):
            self._drain()

    def stop(self) -> list[dict[str, Any]]:
        self._stop.set()
        self._thread.join(timeout=10)
        self._drain()
        return self.spans


def write_spans(spans: list[dict[str, Any]], path: Path) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec, default=str) + "\n")

"""Framework-wide observability: tracing, metrics, structured logging.

Zero external dependencies.  Three pillars:

* :mod:`repro.obs.trace` — span context managers, per-process ring
  buffer, JSON-lines and Chrome trace-event exporters;
* :mod:`repro.obs.metrics` — process-global registry of counters,
  gauges and log2-bucket histograms with Prometheus/JSON exposition;
* :mod:`repro.obs.log` — structured JSON-lines logging;
* :mod:`repro.obs.telemetry` — live HTTP endpoint (/metrics, /healthz,
  /stats.json) any Prometheus scraper or health check can hit
  (imported from its module: it pulls in ``http.server``, which only a
  serving process needs);
* :mod:`repro.obs.bench` — continuous-benchmarking archive and
  statistical regression detection (imported lazily: it pulls in the
  session layer, which itself depends on this package).

Everything is always compiled in but cheap when disabled: the span
fast path is one attribute check, metrics are opt-in call sites, and
logging defaults to ``warning``.
"""

from repro.obs.log import StructuredLogger, configure as configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    registry,
)
from repro.obs.trace import (
    Tracer, get_tracer, new_trace_id, span, traced, tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StructuredLogger",
    "Tracer",
    "configure_logging",
    "escape_label_value",
    "get_logger",
    "get_registry",
    "get_tracer",
    "new_trace_id",
    "registry",
    "span",
    "traced",
    "tracer",
]

"""Columnar (numpy) trial representation for large-scale profiles.

The object model (:class:`~repro.core.model.datasource.DataSource`) is
convenient but allocates one Python object per (thread, event) pair; at
the paper's headline scale — 101 events × 16K threads = 1.6M data
points (§5.3) — that costs hundreds of MB and seconds of GC time.
:class:`ColumnarTrial` stores the same data as dense numpy arrays of
shape ``(num_threads, num_events)`` per field and metric, following the
hpc-python guidance to keep bulk numeric data vectorised.

Both representations convert losslessly into each other, and the DB
session layer ingests either; the E1/E2 benchmarks use this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .datasource import DataSource
from .group import DEFAULT


@dataclass
class ColumnarTrial:
    """Dense per-trial profile storage.

    Arrays indexed ``[thread, event]``; the per-metric arrays live in
    ``inclusive[m]`` / ``exclusive[m]``.  ``calls``/``subroutines`` are
    per-event (shared by all metrics), matching the schema.
    """

    event_names: list[str]
    event_groups: list[str]
    metric_names: list[str]
    thread_triples: np.ndarray  # (n_threads, 3) int32: node, context, thread
    inclusive: list[np.ndarray]  # per metric, (n_threads, n_events) float64
    exclusive: list[np.ndarray]
    calls: np.ndarray  # (n_threads, n_events) float64
    subroutines: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    @classmethod
    def allocate(
        cls,
        event_names: list[str],
        metric_names: list[str],
        thread_triples: np.ndarray | list[tuple[int, int, int]],
        event_groups: Optional[list[str]] = None,
    ) -> "ColumnarTrial":
        triples = np.asarray(thread_triples, dtype=np.int32).reshape(-1, 3)
        n_threads = triples.shape[0]
        n_events = len(event_names)
        shape = (n_threads, n_events)
        return cls(
            event_names=list(event_names),
            event_groups=list(event_groups) if event_groups else [DEFAULT] * n_events,
            metric_names=list(metric_names),
            thread_triples=triples,
            inclusive=[np.zeros(shape) for _ in metric_names],
            exclusive=[np.zeros(shape) for _ in metric_names],
            calls=np.zeros(shape),
            subroutines=np.zeros(shape),
        )

    @classmethod
    def flat_topology(cls, n_ranks: int) -> np.ndarray:
        """Thread triples for a flat MPI run: rank → node, c=0, t=0."""
        triples = np.zeros((n_ranks, 3), dtype=np.int32)
        triples[:, 0] = np.arange(n_ranks, dtype=np.int32)
        return triples

    # -- shape info --------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return int(self.thread_triples.shape[0])

    @property
    def num_events(self) -> int:
        return len(self.event_names)

    @property
    def num_metrics(self) -> int:
        return len(self.metric_names)

    @property
    def num_data_points(self) -> int:
        """The paper's "data points" figure: threads × events × metrics."""
        return self.num_threads * self.num_events * self.num_metrics

    # -- aggregate statistics ------------------------------------------------------

    def total_summary(self, metric: int) -> dict[str, np.ndarray]:
        """Per-event totals over all threads (INTERVAL_TOTAL_SUMMARY)."""
        return {
            "inclusive": self.inclusive[metric].sum(axis=0),
            "exclusive": self.exclusive[metric].sum(axis=0),
            "calls": self.calls.sum(axis=0),
            "subroutines": self.subroutines.sum(axis=0),
        }

    def mean_summary(self, metric: int) -> dict[str, np.ndarray]:
        """Per-event means over all threads (INTERVAL_MEAN_SUMMARY)."""
        n = max(1, self.num_threads)
        totals = self.total_summary(metric)
        return {k: v / n for k, v in totals.items()}

    def inclusive_percent(self, metric: int) -> np.ndarray:
        """Inclusive percentage relative to each thread's run duration."""
        reference = self.inclusive[metric].max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(
                reference > 0, 100.0 * self.inclusive[metric] / reference, 0.0
            )
        return pct

    def exclusive_percent(self, metric: int) -> np.ndarray:
        reference = self.inclusive[metric].max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(
                reference > 0, 100.0 * self.exclusive[metric] / reference, 0.0
            )
        return pct

    def inclusive_per_call(self, metric: int) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.calls > 0, self.inclusive[metric] / self.calls, 0.0)

    def imbalance(self, metric: int = 0) -> np.ndarray:
        """Per-event load-imbalance ratio max/mean of exclusive values."""
        exc = self.exclusive[metric]
        means = exc.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(means > 0, exc.max(axis=0) / means, 1.0)

    # -- bulk row iteration (DB ingest path) -------------------------------------------

    def iter_location_rows(self, metric: int) -> Iterator[tuple]:
        """Yield INTERVAL_LOCATION_PROFILE rows for one metric.

        Row layout: (event_index, node, context, thread, inclusive,
        inclusive_pct, exclusive, exclusive_pct, inclusive_per_call,
        calls, subroutines).  Percentages and per-call values are
        vectorised up front; the generator then walks the arrays.
        """
        inc = self.inclusive[metric]
        exc = self.exclusive[metric]
        inc_pct = self.inclusive_percent(metric)
        exc_pct = self.exclusive_percent(metric)
        per_call = self.inclusive_per_call(metric)
        triples = self.thread_triples
        calls = self.calls
        subrs = self.subroutines
        n_threads, n_events = inc.shape
        for t in range(n_threads):
            node, ctx, thr = (int(x) for x in triples[t])
            row_inc = inc[t]
            row_exc = exc[t]
            row_ip = inc_pct[t]
            row_ep = exc_pct[t]
            row_pc = per_call[t]
            row_calls = calls[t]
            row_subrs = subrs[t]
            for e in range(n_events):
                yield (
                    e, node, ctx, thr,
                    float(row_inc[e]), float(row_ip[e]),
                    float(row_exc[e]), float(row_ep[e]),
                    float(row_pc[e]), float(row_calls[e]), float(row_subrs[e]),
                )

    # -- conversions ---------------------------------------------------------------------

    @classmethod
    def from_datasource(cls, source: DataSource) -> "ColumnarTrial":
        events = list(source.interval_events.values())
        event_names = [e.name for e in events]
        event_groups = [e.group for e in events]
        metric_names = [m.name for m in source.metrics] or ["TIME"]
        triples = np.asarray(source.thread_triples(), dtype=np.int32).reshape(-1, 3)
        trial = cls.allocate(event_names, metric_names, triples, event_groups)
        index_of_event = {e.index: i for i, e in enumerate(events)}
        for t, thread in enumerate(source.all_threads()):
            for event_index, profile in thread.function_profiles.items():
                e = index_of_event[event_index]
                for m, inc, exc in profile.iter_metrics():
                    if m >= trial.num_metrics:
                        continue
                    trial.inclusive[m][t, e] = inc
                    trial.exclusive[m][t, e] = exc
                trial.calls[t, e] = profile.calls
                trial.subroutines[t, e] = profile.subroutines
        trial.metadata = dict(source.metadata)
        return trial

    def to_datasource(self) -> DataSource:
        source = DataSource()
        for name in self.metric_names:
            source.add_metric(name)
        events = [
            source.add_interval_event(name, group)
            for name, group in zip(self.event_names, self.event_groups)
        ]
        for t in range(self.num_threads):
            node, ctx, thr = (int(x) for x in self.thread_triples[t])
            thread = source.add_thread(node, ctx, thr)
            for e, event in enumerate(events):
                if self.calls[t, e] == 0 and all(
                    self.inclusive[m][t, e] == 0 for m in range(self.num_metrics)
                ):
                    continue  # sparse: event never ran on this thread
                profile = thread.get_or_create_function_profile(event)
                for m in range(self.num_metrics):
                    profile.set_inclusive(m, float(self.inclusive[m][t, e]))
                    profile.set_exclusive(m, float(self.exclusive[m][t, e]))
                profile.calls = float(self.calls[t, e])
                profile.subroutines = float(self.subroutines[t, e])
        source.metadata = dict(self.metadata)
        source.generate_statistics()
        return source

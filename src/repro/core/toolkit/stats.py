"""Descriptive statistics over trials — toolkit base routines.

The profile analysis toolkit is *"an extensible suite of common base
analysis routines that can be reused across performance analysis
programs"* (paper §3.1).  These functions consume either model
representation and return plain numpy/dict results so analysis programs
(ParaProf displays, the speedup analyzer, PerfExplorer) stay free of
data-management code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from ..model import ColumnarTrial, DataSource
from ..model.group import split_groups


@dataclass(frozen=True)
class EventStatistics:
    """min/mean/max/stddev of one event's values across threads."""

    event: str
    n_threads: int
    minimum: float
    mean: float
    maximum: float
    stddev: float
    total: float

    @property
    def imbalance(self) -> float:
        """max/mean ratio — 1.0 means perfectly balanced."""
        return self.maximum / self.mean if self.mean > 0 else 1.0


def trial_event_names(source: DataSource | ColumnarTrial) -> list[str]:
    """The trial's interval event names, in event order."""
    if isinstance(source, ColumnarTrial):
        return list(source.event_names)
    return list(source.interval_events)


def _metric_matrix(
    source: ColumnarTrial, metric: int, inclusive: bool
) -> np.ndarray:
    """One metric's (threads × events) values.  A trial with no threads
    gives an empty matrix for any metric index, as a DataSource with no
    threads never looks its metric up."""
    if not source.num_threads:
        return np.zeros((0, source.num_events))
    return source.inclusive[metric] if inclusive else source.exclusive[metric]


def event_values(
    source: DataSource | ColumnarTrial,
    event_name: str,
    metric: int = 0,
    inclusive: bool = False,
) -> np.ndarray:
    """Per-thread values of one event (0.0 where the event never ran)."""
    if isinstance(source, ColumnarTrial):
        if event_name not in source.event_names:
            raise KeyError(f"no such interval event: {event_name}")
        matrix = _metric_matrix(source, metric, inclusive)
        return matrix[:, source.event_names.index(event_name)].copy()
    event = source.get_interval_event(event_name)
    if event is None:
        raise KeyError(f"no such interval event: {event_name}")
    values = np.zeros(source.num_threads)
    for i, thread in enumerate(source.all_threads()):
        profile = thread.function_profiles.get(event.index)
        if profile is not None:
            values[i] = (
                profile.get_inclusive(metric)
                if inclusive
                else profile.get_exclusive(metric)
            )
    return values


def event_statistics(
    source: DataSource, event_name: str, metric: int = 0, inclusive: bool = False
) -> EventStatistics:
    values = event_values(source, event_name, metric, inclusive)
    return EventStatistics(
        event=event_name,
        n_threads=len(values),
        minimum=float(values.min()) if len(values) else 0.0,
        mean=float(values.mean()) if len(values) else 0.0,
        maximum=float(values.max()) if len(values) else 0.0,
        stddev=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        total=float(values.sum()),
    )


def all_event_statistics(
    source: DataSource, metric: int = 0, inclusive: bool = False
) -> list[EventStatistics]:
    return [
        event_statistics(source, name, metric, inclusive)
        for name in source.interval_events
    ]


def top_events(
    source: DataSource,
    n: int = 10,
    metric: int = 0,
    by: str = "mean_exclusive",
) -> list[EventStatistics]:
    """The n most expensive events, ranked by ``by``.

    ``by`` ∈ {'mean_exclusive', 'max_exclusive', 'total_exclusive',
    'mean_inclusive'}.
    """
    inclusive = by.endswith("inclusive")
    stats = all_event_statistics(source, metric, inclusive)
    key = {
        "mean_exclusive": lambda s: s.mean,
        "mean_inclusive": lambda s: s.mean,
        "max_exclusive": lambda s: s.maximum,
        "total_exclusive": lambda s: s.total,
    }.get(by)
    if key is None:
        raise ValueError(f"unknown ranking {by!r}")
    return sorted(stats, key=key, reverse=True)[:n]


def thread_metric_matrix(
    source: DataSource | ColumnarTrial, metric: int = 0, inclusive: bool = False
) -> tuple[np.ndarray, list[str]]:
    """(threads × events) value matrix plus event names.

    The input shape for PerfExplorer's clustering (§5.3).
    """
    if isinstance(source, ColumnarTrial):
        matrix = _metric_matrix(source, metric, inclusive)
        return matrix.copy(), list(source.event_names)
    names = list(source.interval_events)
    matrix = np.zeros((source.num_threads, len(names)))
    index_of = {
        event.index: j for j, event in enumerate(source.interval_events.values())
    }
    for i, thread in enumerate(source.all_threads()):
        for event_index, profile in thread.function_profiles.items():
            j = index_of[event_index]
            matrix[i, j] = (
                profile.get_inclusive(metric)
                if inclusive
                else profile.get_exclusive(metric)
            )
    return matrix, names


def group_breakdown(
    source: DataSource | ColumnarTrial, metric: int = 0
) -> dict[str, float]:
    """Total exclusive value per event group (compute/MPI/IO/...).

    Values are added thread by thread, each thread's events in order, so
    a stored trial gives bit-identical totals in either representation.
    A :class:`ColumnarTrial` is dense — every (thread, event) cell counts
    as profiled, as every stored row does — so its groups are absent
    only when it has no threads.
    """
    if isinstance(source, ColumnarTrial):
        if not source.num_threads:
            return {}
        members: dict[str, list[int]] = {}
        for e, spec in enumerate(source.event_groups):
            for g in split_groups(spec):
                members.setdefault(g, []).append(e)
        exclusive = source.exclusive[metric]
        return {
            g: reduce(add, exclusive[:, events].ravel().tolist(), 0.0)
            for g, events in members.items()
        }
    totals: dict[str, float] = {}
    for thread in source.all_threads():
        for profile in thread.function_profiles.values():
            for g in profile.event.groups:
                totals[g] = totals.get(g, 0.0) + profile.get_exclusive(metric)
    return totals


def thread_durations(
    source: DataSource | ColumnarTrial, metric: int = 0
) -> np.ndarray:
    """Per-thread run duration: each thread's largest inclusive value
    (TAU's 100% reference, 0.0 for a thread with no profiles)."""
    if isinstance(source, ColumnarTrial):
        return np.fmax.reduce(
            _metric_matrix(source, metric, True), axis=1, initial=0.0
        )
    return np.array([t.max_inclusive(metric) for t in source.all_threads()])


def load_imbalance(source: DataSource | ColumnarTrial, metric: int = 0) -> float:
    """Trial-level imbalance: max/mean of per-thread run duration."""
    durations = thread_durations(source, metric)
    if len(durations) == 0 or durations.mean() == 0:
        return 1.0
    return float(durations.max() / durations.mean())

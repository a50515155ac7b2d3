"""Chart-data producers for the PerfExplorer client.

The real PerfExplorer grew a charting pane (scalability curves,
correlation plots, stacked group bars) on top of the §5.3 architecture.
These functions compute those chart *series* — the client renders them
however it likes (our tests assert on the data; the CLI prints text).

Every producer takes PerfDMF-model inputs — a DataSource or the
ColumnarTrial the analysis server loads — and returns plain dicts/lists
so the values serialise over the wire protocol unchanged.  Both inputs
of one stored trial give bit-identical series.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..core.model import ColumnarTrial, DataSource
from ..core.toolkit.speedup import SpeedupAnalyzer
from ..core.toolkit.stats import event_values, group_breakdown, trial_event_names

TrialData = DataSource | ColumnarTrial


def speedup_chart(
    trials: Sequence[tuple[int, TrialData]],
    events: Optional[list[str]] = None,
    metric: int = 0,
) -> dict[str, Any]:
    """Scalability chart: per-routine and whole-app speedup series.

    Returns ``{"processors": [...], "series": {event: [mean speedups]},
    "application": [...], "ideal": [...]}``.
    """
    analyzer = SpeedupAnalyzer(metric=metric)
    for processors, source in trials:
        analyzer.add_trial(processors, source)
    counts = analyzer.processor_counts
    series: dict[str, list[Optional[float]]] = {}
    for curve in analyzer.analyze(events):
        by_p = {pt.processors: pt.mean for pt in curve.points}
        series[curve.event] = [by_p.get(p) for p in counts]
    app_points = analyzer.application_speedup()
    base = counts[0]
    return {
        "processors": counts,
        "series": series,
        "application": [pt.mean for pt in app_points],
        "ideal": [p / base for p in counts],
    }


def correlation_matrix(
    source: TrialData,
    events: Optional[list[str]] = None,
    metric: int = 0,
) -> dict[str, Any]:
    """Pairwise Pearson correlations of per-thread event values.

    High off-diagonal structure is what the analyst scans for: strongly
    anti-correlated events indicate work shifting between routines
    across threads (the sPPM boundary effect shows up here too).
    """
    if events is None:
        events = trial_event_names(source)
    matrix = np.vstack(
        [event_values(source, name, metric) for name in events]
    )
    # drop constant rows to avoid undefined correlations
    live = matrix.std(axis=1) > 0
    kept = [name for name, keep in zip(events, live) if keep]
    if len(kept) < 2:
        return {"events": kept, "matrix": [[1.0] * len(kept)] * len(kept)}
    correlation = np.corrcoef(matrix[live])
    return {"events": kept, "matrix": correlation.round(6).tolist()}


def group_fraction_chart(
    trials: Sequence[tuple[int, TrialData]], metric: int = 0
) -> dict[str, Any]:
    """Stacked-bar data: fraction of total time per event group vs P."""
    processors = []
    groups: dict[str, list[float]] = {}
    all_groups: set[str] = set()
    breakdowns = []
    for p, source in sorted(trials, key=lambda t: t[0]):
        processors.append(p)
        breakdown = group_breakdown(source, metric)
        breakdowns.append(breakdown)
        all_groups.update(breakdown)
    for group in sorted(all_groups):
        series = []
        for breakdown in breakdowns:
            total = sum(breakdown.values()) or 1.0
            series.append(breakdown.get(group, 0.0) / total)
        groups[group] = series
    return {"processors": processors, "fractions": groups}


def imbalance_chart(
    source: TrialData, metric: int = 0, top: int = 10
) -> dict[str, Any]:
    """Per-event imbalance (max/mean over threads), worst first."""
    rows = []
    for name in trial_event_names(source):
        values = event_values(source, name, metric)
        mean = float(values.mean())
        if mean <= 0:
            continue
        rows.append(
            {
                "event": name,
                "mean": mean,
                "max": float(values.max()),
                "imbalance": float(values.max() / mean),
            }
        )
    rows.sort(key=lambda r: r["imbalance"], reverse=True)
    return {"events": rows[:top]}

"""Speedup analysis — the §5.2 trial browser / speedup analyzer.

*"Given performance data from experiments with varying numbers of
processors, the tool automatically calculates the minimum, mean and
maximum values for the speedup [of] every profiled routine."*

Inputs are (processor count, DataSource or ColumnarTrial) pairs;
speedups are computed per routine against the smallest processor count
as the baseline, using per-thread inclusive times:

* min speedup  = base_time / max-over-threads(time)  (slowest thread)
* max speedup  = base_time / min-over-threads(time)  (fastest thread)
* mean speedup = base_time / mean-over-threads(time)

where ``base_time`` is the mean per-thread time at the baseline count.
Routines absent from a trial are skipped for that point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..model import ColumnarTrial, DataSource
from .stats import event_values, thread_durations, trial_event_names


@dataclass(frozen=True)
class SpeedupPoint:
    """Speedup of one routine at one processor count."""

    processors: int
    minimum: float
    mean: float
    maximum: float

    @property
    def efficiency(self) -> float:
        """Parallel efficiency from the mean speedup."""
        return self.mean / self.processors if self.processors else 0.0


@dataclass
class RoutineSpeedup:
    """The full speedup curve of one routine."""

    event: str
    baseline_processors: int
    points: list[SpeedupPoint] = field(default_factory=list)

    def classify(self, threshold: float = 0.7) -> str:
        """'scalable', 'saturating' or 'degrading' from the curve tail."""
        if len(self.points) < 2:
            return "scalable"
        last = self.points[-1]
        if last.efficiency >= threshold:
            return "scalable"
        prev = self.points[-2]
        if last.mean < prev.mean * 0.95:  # clearly worse, not just noise
            return "degrading"
        return "saturating"


class SpeedupAnalyzer:
    """Accumulates trials at several processor counts; computes curves."""

    def __init__(self, metric: int = 0, inclusive: bool = True):
        self.metric = metric
        self.inclusive = inclusive
        self._trials: dict[int, DataSource | ColumnarTrial] = {}

    def add_trial(
        self, processors: int, source: DataSource | ColumnarTrial
    ) -> None:
        if processors in self._trials:
            raise ValueError(f"trial for P={processors} already added")
        self._trials[processors] = source

    @property
    def processor_counts(self) -> list[int]:
        return sorted(self._trials)

    def routines(self) -> list[str]:
        """Routines present in the baseline trial."""
        if not self._trials:
            return []
        baseline = self._trials[self.processor_counts[0]]
        return trial_event_names(baseline)

    def analyze(self, events: Optional[list[str]] = None) -> list[RoutineSpeedup]:
        """Speedup curves for every (or the given) profiled routine."""
        counts = self.processor_counts
        if len(counts) < 2:
            raise ValueError("need trials at >= 2 processor counts")
        base_p = counts[0]
        baseline = self._trials[base_p]
        targets = events if events is not None else self.routines()
        out: list[RoutineSpeedup] = []
        for event_name in targets:
            try:
                base_values = event_values(
                    baseline, event_name, self.metric, self.inclusive
                )
            except KeyError:
                continue
            base_time = float(base_values.mean())
            if base_time <= 0:
                continue
            curve = RoutineSpeedup(event=event_name, baseline_processors=base_p)
            for p in counts:
                source = self._trials[p]
                try:
                    values = event_values(
                        source, event_name, self.metric, self.inclusive
                    )
                except KeyError:
                    continue
                values = values[values > 0]
                if len(values) == 0:
                    continue
                # relative speedup: normalised to the baseline count
                scale = p / base_p
                curve.points.append(
                    SpeedupPoint(
                        processors=p,
                        minimum=base_time / float(values.max()),
                        mean=base_time / float(values.mean()),
                        maximum=base_time / float(values.min()),
                    )
                )
            out.append(curve)
        return out

    def application_speedup(self) -> list[SpeedupPoint]:
        """Whole-application speedup from per-thread run durations."""
        counts = self.processor_counts
        if len(counts) < 2:
            raise ValueError("need trials at >= 2 processor counts")
        base_durations = thread_durations(self._trials[counts[0]], self.metric)
        base_time = float(base_durations.mean())
        points = []
        for p in counts:
            durations = thread_durations(self._trials[p], self.metric)
            points.append(
                SpeedupPoint(
                    processors=p,
                    minimum=base_time / float(durations.max()),
                    mean=base_time / float(durations.mean()),
                    maximum=base_time / float(durations.min()),
                )
            )
        return points

    def report(self, top: int = 0) -> str:
        """Text table of per-routine min/mean/max speedups (§5.2 output)."""
        curves = self.analyze()
        if top:
            curves = sorted(
                curves, key=lambda c: c.points[-1].mean if c.points else 0
            )[:top]
        counts = self.processor_counts
        lines = [
            "Speedup analysis (baseline P=%d)" % counts[0],
            "%-32s %6s %10s %10s %10s  %s"
            % ("routine", "P", "min", "mean", "max", "class"),
        ]
        for curve in curves:
            classification = curve.classify()
            for point in curve.points:
                lines.append(
                    "%-32s %6d %10.2f %10.2f %10.2f  %s"
                    % (
                        curve.event[:32], point.processors,
                        point.minimum, point.mean, point.maximum,
                        classification if point is curve.points[-1] else "",
                    )
                )
        return "\n".join(lines)

"""Scaling-model fitting and prediction (the Prophesy integration, §6).

Paper §6: *"PerfDMF follows in the spirit of Prophesy ... This could
allow Prophesy's modeling algorithms to be captured as part of a broader
analysis library.  In this way, several performance tools could benefit
from the advanced modeling analysis Prophesy provides."*

This module captures the core Prophesy capability: fit analytic scaling
models to a processor sweep and predict performance at unmeasured
scales.  Three model families cover the routine behaviours the synthetic
applications (and real codes) exhibit:

* **Amdahl** — ``t(P) = serial + parallel / P`` (strong scaling with a
  serial fraction);
* **power law** — ``t(P) = a · P^b`` (catches both sublinear compute,
  b≈−1, and growing communication, b>0);
* **logP** — ``t(P) = a + b·log2(P)`` (tree-structured collectives).

Fits are least-squares (scipy); model selection by adjusted R² with a
complexity tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..model import DataSource
from .stats import event_statistics


@dataclass(frozen=True)
class ScalingModel:
    """One fitted model: ``predict(P)`` estimates the per-thread value."""

    name: str
    parameters: tuple[float, ...]
    r_squared: float
    _predict: Callable[[float, tuple[float, ...]], float]

    def predict(self, processors: float) -> float:
        return self._predict(processors, self.parameters)

    def describe(self) -> str:
        params = ", ".join(f"{p:.4g}" for p in self.parameters)
        return f"{self.name}({params}) R²={self.r_squared:.4f}"

    @property
    def serial_fraction(self) -> Optional[float]:
        """For Amdahl fits: the serial fraction of total t(1)."""
        if self.name != "amdahl":
            return None
        serial, parallel = self.parameters
        total = serial + parallel
        return serial / total if total > 0 else None


def _amdahl(p, params):
    serial, parallel = params
    return serial + parallel / p


def _power(p, params):
    a, b = params
    return a * p**b


def _logp(p, params):
    a, b = params
    return a + b * math.log2(max(p, 1.0))


def _fit(
    name: str,
    fn,
    p0: Sequence[float],
    processors: np.ndarray,
    values: np.ndarray,
    bounds=(-np.inf, np.inf),
) -> Optional[ScalingModel]:
    # scipy.optimize costs ~0.5 s to import; only a fit pays for it.
    from scipy import optimize

    def vector_fn(p, *params):
        return np.array([fn(pi, params) for pi in p])

    try:
        # sigma=values -> minimise *relative* residuals, so the large-P
        # points (smallest absolute values) carry equal weight; without
        # this, extrapolation beyond the sweep is systematically biased
        # toward the P=1 behaviour.
        params, _cov = optimize.curve_fit(
            vector_fn, processors, values, p0=p0, bounds=bounds,
            sigma=values, absolute_sigma=False, maxfev=10000,
        )
    except (RuntimeError, ValueError):
        return None
    predictions = vector_fn(processors, *params)
    residual = float(((values - predictions) ** 2).sum())
    total = float(((values - values.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return ScalingModel(
        name=name,
        parameters=tuple(float(x) for x in params),
        r_squared=r_squared,
        _predict=fn,
    )


def fit_scaling_models(
    processors: Sequence[int], values: Sequence[float]
) -> list[ScalingModel]:
    """Fit every model family; returns successful fits, best first."""
    p = np.asarray(processors, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(p) < 3:
        raise ValueError("need >= 3 sweep points to fit scaling models")
    if (v <= 0).any():
        raise ValueError("values must be positive")
    t1 = float(v[0])
    candidates = [
        _fit("amdahl", _amdahl, [t1 * 0.1, t1 * 0.9], p, v,
             bounds=([0.0, 0.0], [np.inf, np.inf])),
        _fit("power", _power, [t1, -1.0], p, v),
        _fit("logp", _logp, [t1, 0.0], p, v),
    ]
    models = [m for m in candidates if m is not None]
    models.sort(key=lambda m: m.r_squared, reverse=True)
    return models


def best_model(
    processors: Sequence[int], values: Sequence[float], min_r2: float = 0.0
) -> ScalingModel:
    models = fit_scaling_models(processors, values)
    if not models or models[0].r_squared < min_r2:
        raise ValueError(
            f"no model reached R² >= {min_r2}; best was "
            f"{models[0].describe() if models else 'none'}"
        )
    return models[0]


@dataclass(frozen=True)
class RoutinePrediction:
    event: str
    model: ScalingModel
    predicted: float


def predict_routines(
    trials: Sequence[tuple[int, DataSource]],
    target_processors: int,
    metric: int = 0,
    min_r2: float = 0.9,
) -> list[RoutinePrediction]:
    """Per-routine predictions at an unmeasured processor count.

    Fits each routine's mean-inclusive sweep; routines whose best fit
    fails ``min_r2`` are skipped (Prophesy reported fit quality the same
    way).  Returns predictions sorted by predicted cost, descending —
    the expected bottleneck list at the target scale.
    """
    ordered = sorted(trials, key=lambda t: t[0])
    processors = [p for p, _s in ordered]
    baseline = ordered[0][1]
    out: list[RoutinePrediction] = []
    for name in baseline.interval_events:
        values = []
        for _p, source in ordered:
            if name not in source.interval_events:
                break
            values.append(
                event_statistics(source, name, metric, inclusive=True).mean
            )
        if len(values) != len(ordered) or min(values) <= 0:
            continue
        try:
            model = best_model(processors, values, min_r2=min_r2)
        except ValueError:
            continue
        out.append(
            RoutinePrediction(
                event=name,
                model=model,
                predicted=model.predict(target_processors),
            )
        )
    out.sort(key=lambda r: r.predicted, reverse=True)
    return out


def prediction_report(
    predictions: Sequence[RoutinePrediction], target_processors: int
) -> str:
    lines = [
        f"Predicted per-routine mean inclusive time at P={target_processors}",
        "%-28s %14s  %s" % ("routine", "predicted", "model"),
    ]
    for prediction in predictions:
        lines.append(
            "%-28s %14.1f  %s"
            % (
                prediction.event[:28],
                prediction.predicted,
                prediction.model.describe(),
            )
        )
    return "\n".join(lines)

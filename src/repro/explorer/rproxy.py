"""The analysis-backend interface — PerfDMF's "R" hand-off point.

Paper §5.3: *"the analysis server selects the data of interest, gets the
relevant profile data and hands it off to an analysis application, R.
When R is done with the analysis, the results are saved to the
database."*

We have no R; :class:`NumpyAnalysisBackend` reimplements the operations
PerfExplorer used it for (k-means, PCA, descriptive statistics,
correlation) on numpy/scipy.  The interface stays pluggable —
:class:`AnalysisBackend` is what a real R bridge would implement — so
the server code is backend-agnostic, mirroring the paper's design.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from .clustering import (
    ClusterResult, cluster_trial, kmeans, pca_reduce, silhouette_score,
    summarize_clusters,
)

_EPS = float(np.finfo(float).eps)
_NAN = float("nan")


class AnalysisBackend:
    """What the PerfExplorer server requires of its statistics engine."""

    name = "abstract"

    def kmeans(self, matrix: np.ndarray, k: int, seed: int = 0):
        raise NotImplementedError

    def pca(self, matrix: np.ndarray, components: int = 2):
        raise NotImplementedError

    def describe(self, values: np.ndarray) -> dict[str, float]:
        raise NotImplementedError

    def correlate(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        raise NotImplementedError


class NumpyAnalysisBackend(AnalysisBackend):
    """The default backend: numpy/scipy standing in for GNU R."""

    name = "numpy"

    def kmeans(self, matrix: np.ndarray, k: int, seed: int = 0):
        return kmeans(matrix, k, seed)

    def pca(self, matrix: np.ndarray, components: int = 2):
        return pca_reduce(matrix, components)

    def describe(self, values: np.ndarray) -> dict[str, float]:
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            return {"n": 0.0}
        mean = values.mean()
        d = values - mean
        d2 = d * d
        m2 = d2.mean()
        # scipy.stats' biased moments, NaN where m2 is lost to rounding.
        flat = m2 <= (_EPS * mean) ** 2
        return {
            "n": float(n),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(mean),
            "median": float(np.median(values)),
            "stddev": float(values.std(ddof=1)) if n > 1 else 0.0,
            "skewness": (
                _NAN if flat else float((d2 * d).mean() / m2 ** 1.5)
            ) if n > 2 else 0.0,
            "kurtosis": (
                _NAN if flat else float((d2 * d2).mean() / m2 ** 2 - 3.0)
            ) if n > 3 else 0.0,
        }

    def correlate(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if len(y) != n or n < 2:
            raise ValueError("correlate() needs two equal-length series, n >= 2")
        if (
            (x == x[0]).all() or (y == y[0]).all()
            or np.isnan(x).any() or np.isnan(y).any()
        ):
            # A constant or NaN series has no correlation.
            return dict.fromkeys(
                ("pearson_r", "pearson_p", "spearman_r", "spearman_p"), _NAN
            )
        r = _pearson(x, y)
        rho = _pearson(_ranks(x), _ranks(y))
        if n == 2:
            # Two points fit a line exactly; Spearman's test has no
            # degrees of freedom.
            r = float(np.round(r))
            return {
                "pearson_r": r, "pearson_p": 1.0 if r == r else _NAN,
                "spearman_r": rho, "spearman_p": _NAN,
            }
        return {
            "pearson_r": r, "pearson_p": _p_value(r, n),
            "spearman_r": rho, "spearman_p": _p_value(rho, n),
        }


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r, clipped to [-1, 1] (NaN passes through)."""
    dx = x - x.mean()
    dy = y - y.mean()
    r = float(np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
    return min(max(r, -1.0), 1.0)


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties given the average of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    runs = np.diff(first)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first[:-1] + first[1:] + 1) / 2.0, runs)
    return ranks


def _p_value(r: float, n: int) -> float:
    """Two-sided p-value of a correlation r over n pairs.

    Under the null, Pearson's r follows a beta law whose tail is
    ``I(1 - r**2; n/2 - 1, 1/2)``; Student's t with n - 2 degrees of
    freedom, scipy.stats' test for Spearman's rho, reduces to the same
    expression.  0.0 at |r| = 1.
    """
    # Imported here: a server start need not pay for scipy.special.
    from scipy.special import betainc

    return float(betainc(n / 2 - 1, 0.5, (1 - r) * (1 + r)))


DEFAULT_BACKEND = NumpyAnalysisBackend()

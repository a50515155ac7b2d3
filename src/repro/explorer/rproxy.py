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

from typing import Any, Optional

import numpy as np

from .clustering import (
    ClusterResult, cluster_trial, kmeans, pca_reduce, silhouette_score,
    summarize_clusters,
)


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
        # scipy.stats loads scipy.optimize, ~0.5 s and ~700 modules that
        # a server start need not pay; only these two methods use it.
        from scipy import stats as scipy_stats

        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return {"n": 0.0}
        return {
            "n": float(values.size),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "stddev": float(values.std(ddof=1)) if values.size > 1 else 0.0,
            "skewness": float(scipy_stats.skew(values)) if values.size > 2 else 0.0,
            "kurtosis": float(scipy_stats.kurtosis(values)) if values.size > 3 else 0.0,
        }

    def correlate(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        from scipy import stats as scipy_stats

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) != len(y) or len(x) < 2:
            raise ValueError("correlate() needs two equal-length series, n >= 2")
        pearson = scipy_stats.pearsonr(x, y)
        spearman = scipy_stats.spearmanr(x, y)
        return {
            "pearson_r": float(pearson.statistic),
            "pearson_p": float(pearson.pvalue),
            "spearman_r": float(spearman.statistic),
            "spearman_p": float(spearman.pvalue),
        }


DEFAULT_BACKEND = NumpyAnalysisBackend()

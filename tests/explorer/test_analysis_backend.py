"""``NumpyAnalysisBackend.describe``/``correlate`` against scipy.stats.

The backend computes moments, Pearson's r and Spearman's rho (average
ranks for ties) with numpy, and both p-values from the beta law with
``scipy.special.betainc``.  scipy.stats (skew, kurtosis, pearsonr,
spearmanr) is the reference here: statistics agree within rtol 1e-12,
p-values within rtol 1e-8 or atol 1e-12 (pearsonr evaluates the same
law another way, which differs by a few 1e-9 relative at small n).
scipy is not pinned, so the edge cases are pinned as explicit values
too.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from repro.explorer.rproxy import NumpyAnalysisBackend

SIZES = [3, 4, 5, 8, 32, 256, 4096]
backend = NumpyAnalysisBackend()


def series(n: int, seed: int, tied: bool) -> np.ndarray:
    """Seeded positive samples; ``tied`` draws few distinct values."""
    rng = np.random.default_rng(seed)
    if tied:
        return rng.integers(0, max(3, n // 4), n).astype(float)
    return rng.lognormal(size=n)


def agrees(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("n", SIZES)
def test_describe_matches_scipy(n, tied):
    values = series(n, n, tied)
    got = backend.describe(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = {
            "n": float(n),
            "min": values.min(),
            "max": values.max(),
            "mean": values.mean(),
            "median": np.median(values),
            "stddev": values.std(ddof=1),
            "skewness": stats.skew(values),
            "kurtosis": stats.kurtosis(values) if n > 3 else 0.0,
        }
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert agrees(got[key], float(value), 1e-12), (key, got[key], value)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("n", SIZES)
def test_correlate_matches_scipy(n, tied):
    x = series(n, 2 * n, tied)
    y = x + series(n, 2 * n + 1, tied)
    got = backend.correlate(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pearson = stats.pearsonr(x, y)
        spearman = stats.spearmanr(x, y)
    for name, result in (("pearson", pearson), ("spearman", spearman)):
        r, p = got[f"{name}_r"], got[f"{name}_p"]
        assert agrees(r, float(result.statistic), 1e-12), (name, r, result)
        assert agrees(p, float(result.pvalue), 1e-8, 1e-12), (name, p, result)


class TestPinnedEdgeCases:
    """Values scipy.stats gives today, written out."""

    def test_two_points(self):
        assert backend.correlate([1.0, 2.0], [3.0, 5.0]) == pytest.approx({
            "pearson_r": 1.0, "pearson_p": 1.0,
            "spearman_r": 1.0, "spearman_p": math.nan,
        }, nan_ok=True)
        got = backend.correlate([1.0, 2.0], [5.0, 3.0])
        assert (got["pearson_r"], got["pearson_p"]) == (-1.0, 1.0)
        assert got["spearman_r"] == -1.0 and math.isnan(got["spearman_p"])

    @pytest.mark.parametrize("x, y", [
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0], [7.0, 7.0, 7.0, 7.0]),
        ([4.0, 4.0], [1.0, 2.0]),
    ])
    def test_constant_input_has_no_correlation(self, x, y):
        got = backend.correlate(x, y)
        assert all(math.isnan(v) for v in got.values()), got

    def test_constant_describe(self):
        got = backend.describe(np.full(6, 5.0))
        assert got["stddev"] == 0.0 and got["mean"] == 5.0
        assert math.isnan(got["skewness"]) and math.isnan(got["kurtosis"])

    def test_near_constant_moments_are_nan(self):
        """m2 below (eps * mean)**2 is rounding noise: NaN, not a moment."""
        got = backend.describe(np.array([1.0, 1.0, 1.0, 1.0 + 2.0 ** -52]))
        assert math.isnan(got["skewness"]) and math.isnan(got["kurtosis"])

    def test_tied_ranks_are_averaged(self):
        got = backend.correlate(
            [1.0, 1.0, 2.0, 3.0, 3.0, 3.0], [5.0, 4.0, 3.0, 3.0, 2.0, 1.0]
        )
        assert got["spearman_r"] == pytest.approx(-0.8767140075192095, rel=1e-12)

    def test_perfect_correlation_has_p_zero(self):
        got = backend.correlate([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert got == {
            "pearson_r": 1.0, "pearson_p": 0.0,
            "spearman_r": 1.0, "spearman_p": 0.0,
        }
        got = backend.correlate([1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 5.0, 3.0])
        assert (got["pearson_r"], got["pearson_p"]) == (-1.0, 0.0)
        assert (got["spearman_r"], got["spearman_p"]) == (-1.0, 0.0)

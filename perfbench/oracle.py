"""Expected answers, computed with numpy from the generator's arrays.

Nothing here calls the program: the analysis math is redone from the
definitions (imbalance = max/mean over ranks, moments, Pearson and
Spearman correlation) so a reply that is wrong in any of its numbers
fails the op.  Numbers are compared at a relative tolerance of 1e-9,
loose enough for a server that sums in another order (an exact SQL
push-down) and tight enough that any real error shows.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from scipy import special

from data import EVENT_GROUPS, EVENT_NAMES, METRIC, Profile, TrialSpec

RTOL = 1e-9
#: Values that are zero in exact arithmetic come back as rounding noise.
ATOL = 1e-12


class Mismatch(AssertionError):
    """A reply that differs from the expected answer."""


def close(got: Any, want: float, what: str) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{what}: expected a number, got {got!r}")
    if not math.isclose(float(got), want, rel_tol=RTOL, abs_tol=ATOL):
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def equal(got: Any, want: Any, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# -- analyze -------------------------------------------------------------------

def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


def _pearson_p(r: float, n: int) -> float:
    """Two-sided p-value of Pearson's r under the null (exact beta law)."""
    r = min(1.0, max(-1.0, r))
    return float(special.betainc(n / 2 - 1, 0.5, (1 - r * r))) if abs(r) < 1 else 0.0


def _spearman_p(r: float, n: int) -> float:
    """Two-sided p-value of Spearman's rho by the t approximation."""
    df = n - 2
    if abs(r) >= 1:
        return 0.0
    t2 = r * r * df / ((1 - r) * (1 + r))
    return float(special.betainc(df / 2, 0.5, df / (df + t2)))


def _ranks(x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    out[np.argsort(x, kind="stable")] = np.arange(1, len(x) + 1)
    return out


def describe(values: np.ndarray) -> dict[str, float]:
    n = values.size
    mean = values.mean()
    d = values - mean
    m2, m3, m4 = (d ** 2).mean(), (d ** 3).mean(), (d ** 4).mean()
    return {
        "n": float(n),
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(mean),
        "median": float(np.median(values)),
        "stddev": float(math.sqrt((d ** 2).sum() / (n - 1))),
        "skewness": float(m3 / m2 ** 1.5),
        "kurtosis": float(m4 / m2 ** 2 - 3.0),
    }


def correlate(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    n = len(x)
    r = _pearson(x, y)
    rho = _pearson(_ranks(x), _ranks(y))
    return {
        "pearson_r": r, "pearson_p": _pearson_p(r, n),
        "spearman_r": rho, "spearman_p": _spearman_p(rho, n),
    }


class TrialAnswers:
    """Every answer a drill-down on one trial can be checked against."""

    def __init__(self, p: Profile, top: int = 10):
        x = p.exclusive
        mean, peak = x.mean(axis=0), x.max(axis=0)
        imbalance = peak / mean
        order = sorted(range(len(EVENT_NAMES)), key=lambda e: -imbalance[e])[:top]
        self.imbalance_rows = [
            {"event": EVENT_NAMES[e], "mean": float(mean[e]), "max": float(peak[e]),
             "imbalance": float(imbalance[e])}
            for e in order
        ]
        worst = order[:4]
        self.worst = [EVENT_NAMES[e] for e in worst]
        self.describe = describe(x[:, worst[0]])
        self.correlate = correlate(x[:, worst[0]], x[:, worst[1]])
        self.matrix = np.corrcoef(x[:, worst].T)

    def check_imbalance(self, reply: Any) -> None:
        rows = reply["events"]
        equal(len(rows), len(self.imbalance_rows), "imbalance rows")
        for got, want in zip(rows, self.imbalance_rows):
            equal(got["event"], want["event"], "imbalance order")
            for key in ("mean", "max", "imbalance"):
                close(got[key], want[key], f"imbalance {want['event']} {key}")

    def check_describe(self, reply: Any) -> None:
        equal(sorted(reply), sorted(self.describe), "describe keys")
        for key, want in self.describe.items():
            close(reply[key], want, f"describe {key}")

    def check_correlate(self, reply: Any) -> None:
        equal(sorted(reply), sorted(self.correlate), "correlate keys")
        for key, want in self.correlate.items():
            close(reply[key], want, f"correlate {key}")

    def check_matrix(self, reply: Any) -> None:
        equal(reply["events"], self.worst, "matrix events")
        got = reply["matrix"]
        equal(len(got), 4, "matrix rows")
        for i in range(4):
            equal(len(got[i]), 4, "matrix columns")
            for j in range(4):
                want = float(self.matrix[i, j])
                # The server rounds to 6 decimals: accept either side of
                # a rounding boundary, nothing further.
                if not (abs(got[i][j] - want) <= 5e-7 + RTOL
                        and math.isclose(got[i][j], round(got[i][j], 6), rel_tol=RTOL, abs_tol=ATOL)):
                    raise Mismatch(f"matrix[{i}][{j}]: got {got[i][j]!r}, expected {want!r}")


# -- browse --------------------------------------------------------------------

class Catalog:
    """The archive's application / experiment / trial tree."""

    def __init__(self, specs: list[TrialSpec]):
        self.ranks = {s.name: s.ranks for s in specs}
        self.applications = sorted({s.application for s in specs})
        self.experiments = {
            a: sorted({s.experiment for s in specs if s.application == a})
            for a in self.applications
        }
        self.trials = {
            (s.application, s.experiment): [t.name for t in specs
                                             if (t.application, t.experiment) == (s.application, s.experiment)]
            for s in specs
        }

    def check_applications(self, reply: Any) -> None:
        equal([a["name"] for a in reply], self.applications, "applications")

    def check_experiments(self, app: str, reply: Any) -> None:
        equal([e["name"] for e in reply], self.experiments[app], f"experiments of {app}")

    def check_trials(self, app: str, exp: str, reply: Any) -> None:
        equal([t["name"] for t in reply], self.trials[(app, exp)], f"trials of {exp}")
        for t in reply:
            equal(t["node_count"], self.ranks.get(t["name"]), f"node_count of {t['name']}")

    def check_metrics(self, reply: Any) -> None:
        equal(reply, [METRIC], "metrics")

    def check_events(self, reply: Any) -> None:
        equal([(e["name"], e["group"]) for e in reply],
              list(zip(EVENT_NAMES, EVENT_GROUPS)), "events")
        ids = [e["id"] for e in reply]
        equal(ids, sorted(set(ids)), "event ids ascending and distinct")


# -- ingest --------------------------------------------------------------------

def check_import(trial: str, rows: int, exclusive_sum: float, p: Profile) -> None:
    equal(rows, p.rows, f"{trial} row count")
    close(exclusive_sum, float(p.exclusive.sum()), f"{trial} exclusive checksum")


# -- reopen --------------------------------------------------------------------

def check_listing(stdout: str, trials: list[str]) -> None:
    """``perfdmf list`` prints every trial, in id order, once."""
    listed = [line.split("/")[-1].strip() for line in stdout.splitlines()
              if line.startswith("  ") and "/" in line]
    equal(listed, trials, "listed trials")

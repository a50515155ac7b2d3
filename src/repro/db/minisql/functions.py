"""Scalar and aggregate function implementations for MiniSQL.

Scalar functions receive already-evaluated argument values and return a
value.  Aggregate functions are implemented as accumulator classes with
``step(value)`` / ``finalize()`` in the sqlite3 UDF style.

The aggregate set intentionally includes ``STDDEV`` and ``VARIANCE``
because PerfDMF's query API exposes standard SQL aggregate operations
(min, max, mean, standard deviation — see paper §5.2); sqlite lacks
STDDEV natively, so :mod:`repro.db.sqlite_backend` registers the same
implementations there, keeping the two backends semantically identical.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .errors import DataError, ProgrammingError

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_abs(x: Any) -> Any:
    return None if x is None else abs(x)


def _fn_round(x: Any, digits: Any = 0) -> Any:
    if x is None:
        return None
    return float(round(float(x), int(digits or 0)))

def _fn_length(x: Any) -> Any:
    return None if x is None else len(str(x))


def _fn_upper(x: Any) -> Any:
    return None if x is None else str(x).upper()


def _fn_lower(x: Any) -> Any:
    return None if x is None else str(x).lower()


def _fn_trim(x: Any) -> Any:
    return None if x is None else str(x).strip()


def _fn_ltrim(x: Any) -> Any:
    return None if x is None else str(x).lstrip()


def _fn_rtrim(x: Any) -> Any:
    return None if x is None else str(x).rstrip()


def _fn_substr(x: Any, start: Any, length: Any = None) -> Any:
    """SQL SUBSTR with 1-based indexing and sqlite negative-start rules."""
    if x is None or start is None:
        return None
    text = str(x)
    start = int(start)
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = max(len(text) + start, 0)
    else:
        begin = 0
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


def _fn_replace(x: Any, old: Any, new: Any) -> Any:
    if x is None or old is None or new is None:
        return None
    return str(x).replace(str(old), str(new))


def _fn_instr(haystack: Any, needle: Any) -> Any:
    if haystack is None or needle is None:
        return None
    return str(haystack).find(str(needle)) + 1


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_ifnull(x: Any, fallback: Any) -> Any:
    return fallback if x is None else x


def _fn_nullif(x: Any, y: Any) -> Any:
    return None if x == y else x


def _fn_min_scalar(*args: Any) -> Any:
    vals = [a for a in args if a is not None]
    return min(vals) if vals else None


def _fn_max_scalar(*args: Any) -> Any:
    vals = [a for a in args if a is not None]
    return max(vals) if vals else None


def _fn_sqrt(x: Any) -> Any:
    if x is None:
        return None
    value = float(x)
    if value < 0:
        raise DataError("SQRT of negative value")
    return math.sqrt(value)


def _fn_power(x: Any, y: Any) -> Any:
    if x is None or y is None:
        return None
    return float(x) ** float(y)


def _fn_log(x: Any) -> Any:
    if x is None:
        return None
    value = float(x)
    if value <= 0:
        raise DataError("LOG of non-positive value")
    return math.log(value)


def _fn_exp(x: Any) -> Any:
    return None if x is None else math.exp(float(x))


def _fn_floor(x: Any) -> Any:
    return None if x is None else int(math.floor(float(x)))


def _fn_ceil(x: Any) -> Any:
    return None if x is None else int(math.ceil(float(x)))


def _fn_mod(x: Any, y: Any) -> Any:
    if x is None or y is None:
        return None
    if float(y) == 0:
        return None
    return math.fmod(float(x), float(y)) if isinstance(x, float) or isinstance(y, float) else int(x) % int(y)


def _fn_sign(x: Any) -> Any:
    if x is None:
        return None
    value = float(x)
    return (value > 0) - (value < 0)


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "ABS": _fn_abs,
    "ROUND": _fn_round,
    "LENGTH": _fn_length,
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "TRIM": _fn_trim,
    "LTRIM": _fn_ltrim,
    "RTRIM": _fn_rtrim,
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "REPLACE": _fn_replace,
    "INSTR": _fn_instr,
    "COALESCE": _fn_coalesce,
    "IFNULL": _fn_ifnull,
    "NULLIF": _fn_nullif,
    "SQRT": _fn_sqrt,
    "POWER": _fn_power,
    "POW": _fn_power,
    "LOG": _fn_log,
    "LN": _fn_log,
    "EXP": _fn_exp,
    "FLOOR": _fn_floor,
    "CEIL": _fn_ceil,
    "CEILING": _fn_ceil,
    "MOD": _fn_mod,
    "SIGN": _fn_sign,
    # Multi-argument MIN/MAX are scalar (sqlite semantics); the
    # single-argument forms are aggregates and dispatched separately.
    "MIN": _fn_min_scalar,
    "MAX": _fn_max_scalar,
}


def call_scalar(name: str, args: list[Any]) -> Any:
    try:
        fn = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise ProgrammingError(f"no such function: {name}") from None
    try:
        return fn(*args)
    except TypeError as exc:
        raise ProgrammingError(f"wrong argument count for {name}(): {exc}") from None


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate:
    """Base accumulator.  ``step`` sees one value per input row."""

    def step(self, value: Any) -> None:
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


class CountAgg(Aggregate):
    """COUNT(x): non-NULL count.  COUNT(*) is handled by the executor
    passing a sentinel non-NULL value for every row."""

    def __init__(self) -> None:
        self.n = 0

    def step(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def finalize(self) -> int:
        return self.n


class SumAgg(Aggregate):
    def __init__(self) -> None:
        self.total: Any = None

    def step(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def finalize(self) -> Any:
        return self.total


class AvgAgg(Aggregate):
    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def step(self, value: Any) -> None:
        if value is None:
            return
        self.total += float(value)
        self.n += 1

    def finalize(self) -> Any:
        return self.total / self.n if self.n else None


class MinAgg(Aggregate):
    def __init__(self) -> None:
        self.best: Any = None

    def step(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def finalize(self) -> Any:
        return self.best


class MaxAgg(Aggregate):
    def __init__(self) -> None:
        self.best: Any = None

    def step(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def finalize(self) -> Any:
        return self.best


class _MomentAgg(Aggregate):
    """Shared Welford accumulator for variance/stddev (population=N
    divisor matching PerfDMF's use of sample statistics: divisor N-1)."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, value: Any) -> None:
        if value is None:
            return
        x = float(value)
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def _variance(self) -> Any:
        if self.n < 2:
            return None
        return self.m2 / (self.n - 1)


class VarianceAgg(_MomentAgg):
    def finalize(self) -> Any:
        return self._variance()


class StddevAgg(_MomentAgg):
    def finalize(self) -> Any:
        var = self._variance()
        return None if var is None else math.sqrt(var)


class GroupConcatAgg(Aggregate):
    def __init__(self) -> None:
        self.parts: list[str] = []

    def step(self, value: Any) -> None:
        if value is not None:
            self.parts.append(str(value))

    def finalize(self) -> Any:
        return ",".join(self.parts) if self.parts else None


class TotalAgg(Aggregate):
    """sqlite's TOTAL(): like SUM but returns 0.0 instead of NULL."""

    def __init__(self) -> None:
        self.total = 0.0

    def step(self, value: Any) -> None:
        if value is not None:
            self.total += float(value)

    def finalize(self) -> float:
        return self.total


AGGREGATE_FUNCTIONS: dict[str, type[Aggregate]] = {
    "COUNT": CountAgg,
    "SUM": SumAgg,
    "AVG": AvgAgg,
    "MIN": MinAgg,
    "MAX": MaxAgg,
    "STDDEV": StddevAgg,
    "STDEV": StddevAgg,
    "VARIANCE": VarianceAgg,
    "GROUP_CONCAT": GroupConcatAgg,
    "TOTAL": TotalAgg,
}


def is_aggregate(name: str) -> bool:
    return name in AGGREGATE_FUNCTIONS


def make_aggregate(name: str) -> Aggregate:
    try:
        return AGGREGATE_FUNCTIONS[name]()
    except KeyError:
        raise ProgrammingError(f"no such aggregate: {name}") from None

"""Differential property tests: MiniSQL must agree with sqlite3.

The strongest possible statement of PerfDMF's engine-independence claim:
for randomly generated data and a family of portable queries, the pure
Python engine and sqlite return identical result sets.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from tests.db import modes

# Values that survive a round trip through both engines.
_values = st.one_of(
    st.none(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
        max_size=12,
    ),
)

_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        _values,
    ),
    min_size=0,
    max_size=40,
)


#: Every property must hold in every MiniSQL execution mode (the test
#: ids keep this suite's name, "interpreter", for the interpreted one).
over_modes = pytest.mark.parametrize(
    "mode", list(modes.MODES),
    ids=modes.ids(interpreted="interpreter"),
)


def _both(rows, mode="compiled"):
    """Load identical data into a fresh pair of engines."""
    ms = modes.connect(mode)
    sq = sqlite3.connect(":memory:")
    ddl = "CREATE TABLE t (k INTEGER, v REAL, x TEXT)"
    ms.execute(ddl)
    sq.execute(ddl)
    ms.executemany("INSERT INTO t (k, v, x) VALUES (?, ?, ?)", rows)
    sq.executemany("INSERT INTO t (k, v, x) VALUES (?, ?, ?)", rows)
    return ms, sq


def _normalise(rows):
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                if math.isclose(cell, round(cell)) and abs(cell) < 1e15:
                    cell = round(cell, 9)
                else:
                    cell = round(cell, 9)
            cells.append(cell)
        out.append(tuple(cells))
    return out


def _compare(ms, sq, sql, params=()):
    got = _normalise(ms.execute(sql, params).fetchall())
    want = _normalise(sq.execute(sql, params).fetchall())
    assert got == want, f"engines disagree on {sql!r}: {got} != {want}"


QUERIES = [
    "SELECT k, v, x FROM t ORDER BY k, v, x",
    "SELECT count(*) FROM t",
    "SELECT count(v), count(x) FROM t",
    "SELECT k, count(*) FROM t GROUP BY k ORDER BY k",
    "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k",
    "SELECT min(v), max(v) FROM t",
    "SELECT k FROM t WHERE v > 0 ORDER BY k, v",
    "SELECT DISTINCT k FROM t ORDER BY k",
    "SELECT k, v FROM t WHERE k BETWEEN 2 AND 7 ORDER BY k, v",
    "SELECT k FROM t WHERE x IS NULL ORDER BY k",
    "SELECT k FROM t WHERE x IS NOT NULL ORDER BY k",
    "SELECT k + 1, v * 2 FROM t ORDER BY k, v",
    "SELECT k FROM t WHERE k IN (1, 3, 5) ORDER BY k",
    "SELECT CASE WHEN v > 0 THEN 'pos' ELSE 'neg' END, count(*) FROM t "
    "GROUP BY 1 ORDER BY 1",
    "SELECT k FROM t ORDER BY k LIMIT 5",
    "SELECT k FROM t ORDER BY k LIMIT 3 OFFSET 2",
    "SELECT k, count(*) c FROM t GROUP BY k HAVING c > 1 ORDER BY k",
    "SELECT k FROM t UNION SELECT k + 100 FROM t ORDER BY 1",
    "SELECT abs(k), round(v, 2) FROM t ORDER BY k, v",
]


@settings(max_examples=40, deadline=None)
@given(rows=_rows)
@over_modes
@pytest.mark.parametrize("sql", QUERIES)
def test_engines_agree(sql, mode, rows):
    ms, sq = _both(rows, mode)
    try:
        _compare(ms, sq, sql)
    finally:
        ms.close()
        sq.close()


@settings(max_examples=30, deadline=None)
@given(rows=_rows, threshold=st.floats(min_value=-10, max_value=10))
@over_modes
def test_parameterised_filter_agrees(mode, rows, threshold):
    ms, sq = _both(rows, mode)
    try:
        _compare(
            ms, sq,
            "SELECT k, v FROM t WHERE v >= ? ORDER BY k, v",
            (threshold,),
        )
    finally:
        ms.close()
        sq.close()


@settings(max_examples=30, deadline=None)
@given(rows=_rows)
@over_modes
def test_avg_agrees_within_float_noise(mode, rows):
    ms, sq = _both(rows, mode)
    try:
        got = ms.execute("SELECT avg(v) FROM t").fetchone()[0]
        want = sq.execute("SELECT avg(v) FROM t").fetchone()[0]
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    finally:
        ms.close()
        sq.close()


@settings(max_examples=25, deadline=None)
@given(rows=_rows)
@over_modes
def test_update_then_state_agrees(mode, rows):
    ms, sq = _both(rows, mode)
    try:
        for conn in (ms, sq):
            conn.execute("UPDATE t SET v = v + 1 WHERE k < 5")
            conn.execute("DELETE FROM t WHERE k = 9")
        _compare(ms, sq, "SELECT k, v, x FROM t ORDER BY k, v, x")
    finally:
        ms.close()
        sq.close()


@settings(max_examples=25, deadline=None)
@given(rows=_rows)
@over_modes
def test_join_agrees(mode, rows):
    ms, sq = _both(rows, mode)
    try:
        for conn in (ms, sq):
            conn.execute("CREATE TABLE names (k INTEGER, label TEXT)")
            conn.executemany(
                "INSERT INTO names VALUES (?, ?)",
                [(i, f"k{i}") for i in range(5)],
            )
        _compare(
            ms, sq,
            "SELECT n.label, count(*) FROM t JOIN names n ON n.k = t.k "
            "GROUP BY n.label ORDER BY n.label",
        )
        _compare(
            ms, sq,
            "SELECT n.label, t.v FROM names n LEFT JOIN t ON t.k = n.k "
            "ORDER BY n.label, t.v",
        )
    finally:
        ms.close()
        sq.close()


QUERIES_EXTENDED = [
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 7",
    "SELECT x FROM t WHERE x LIKE 'a%' ORDER BY x",
    "SELECT k FROM t WHERE v NOT BETWEEN -10 AND 10 ORDER BY k, v",
    "SELECT k, max(v) - min(v) FROM t GROUP BY k ORDER BY k",
    "SELECT count(*) FROM t WHERE x IS NULL OR k < 3",
    "SELECT k * 2 + 1 FROM t WHERE NOT k = 4 ORDER BY 1",
    "SELECT DISTINCT k FROM t WHERE v <> 0 ORDER BY k DESC",
    "SELECT upper(x), length(x) FROM t WHERE x IS NOT NULL ORDER BY x",
]


@settings(max_examples=25, deadline=None)
@given(rows=_rows)
@over_modes
@pytest.mark.parametrize("sql", QUERIES_EXTENDED)
def test_engines_agree_extended(sql, mode, rows):
    ms, sq = _both(rows, mode)
    try:
        _compare(ms, sq, sql)
    finally:
        ms.close()
        sq.close()


@settings(max_examples=20, deadline=None)
@given(rows=_rows, low=st.integers(0, 5), high=st.integers(4, 9))
@over_modes
def test_between_with_params_agrees(mode, rows, low, high):
    ms, sq = _both(rows, mode)
    try:
        _compare(
            ms, sq,
            "SELECT k, v FROM t WHERE k BETWEEN ? AND ? ORDER BY k, v",
            (low, high),
        )
    finally:
        ms.close()
        sq.close()

"""Interpreted-vs-compiled equivalence for MiniSQL's SELECT pipeline.

Every section of a plan is a closure: the compiler's where it lowers the
section's expression, an interpreted one (``expr.evaluate``) where it
does not.  Compilation must be an invisible optimisation: every
statement returns row for row what the interpreted mode returns, and
raises what it raises, when it raises it.  This module checks that by
replaying the differential SQL corpus in both modes, by hostile strings
/ NULL / three-valued-logic expressions and the outcomes of statements
the compiler refuses in every mode, and through the observability
surface (EXPLAIN's compiled column, the plan-cache and fallback
counters).
"""

import math

import pytest

from repro.db import minisql
from tests.db import modes
from tests.db.test_columnar_equivalence import _outcome
from tests.test_differential_sql import CORPUS, Err


def _normalise(rows):
    out = []
    for row in rows:
        out.append(tuple(
            round(cell, 9) if isinstance(cell, float) and math.isfinite(cell)
            else cell
            for cell in row
        ))
    return out


def _is_query(sql):
    head = sql.lstrip().upper()
    return head.startswith("SELECT") or head.startswith("EXPLAIN")


class TestCorpusBothWays:
    """Fuzz-ish sweep: every differential-corpus statement, both modes."""

    def test_corpus_rows_identical(self):
        compiled = modes.connect("compiled")
        interpreted = modes.connect("interpreted")
        pair = (compiled, interpreted)
        for position, entry in enumerate(CORPUS):
            if isinstance(entry, Err):
                for conn in pair:
                    with pytest.raises(minisql.IntegrityError):
                        conn.execute(entry.sql, entry.params)
                    conn.rollback()
                continue
            sql, params = entry
            results = []
            for conn in pair:
                cursor = conn.execute(sql, params)
                if _is_query(sql):
                    results.append(_normalise(cursor.fetchall()))
                else:
                    conn.commit()
                    results.append(None)
            assert results[0] == results[1], (
                f"statement #{position} diverged under compilation: {sql!r}\n"
                f"  compiled   : {results[0]!r}\n"
                f"  interpreted: {results[1]!r}"
            )
        compiled.close()
        interpreted.close()

    def test_repeated_execution_hits_plan_cache(self):
        """Round two over the statement cache must serve cached plans."""
        conn = minisql.connect()
        conn.execute("CREATE TABLE warm (x INTEGER)")
        conn.execute("INSERT INTO warm VALUES (1), (2)")
        conn.execute("SELECT x FROM warm WHERE x > 0")
        before = conn.stats()["plan_cache_hits"]
        conn.execute("SELECT x FROM warm WHERE x > 0")
        assert conn.stats()["plan_cache_hits"] == before + 1
        conn.close()


class TestHostileExpressions:
    """Hostile strings, NULLs and three-valued logic, in every mode.

    One connection per mode over identical rows: identical statement
    text, only the execution path differs.
    """

    QUERIES = [
        "SELECT x, x = 'O''Malley' FROM h ORDER BY id",
        "SELECT x FROM h WHERE x LIKE '%\\%' ORDER BY id",
        "SELECT x FROM h WHERE x LIKE '%_%' ORDER BY id",
        "SELECT x FROM h WHERE x LIKE 'line%' ORDER BY id",
        "SELECT id, x IS NULL, x IS NOT NULL FROM h ORDER BY id",
        "SELECT id, n + 1, n - 1, n * 2, n / 0, n % 0 FROM h ORDER BY id",
        "SELECT id, NOT (n > 1), n > 1 OR x IS NULL, n > 1 AND x IS NULL "
        "FROM h ORDER BY id",
        "SELECT id FROM h WHERE n IN (1, NULL) ORDER BY id",
        "SELECT id FROM h WHERE n NOT IN (1, NULL) ORDER BY id",
        "SELECT id FROM h WHERE n BETWEEN 0 AND 2 ORDER BY id",
        "SELECT id FROM h WHERE n NOT BETWEEN 0 AND 2 ORDER BY id",
        "SELECT id, CASE n WHEN 1 THEN 'one' WHEN NULL THEN 'null' "
        "ELSE 'other' END FROM h ORDER BY id",
        "SELECT id, CASE WHEN n IS NULL THEN 'null' WHEN n > 1 THEN 'big' "
        "END FROM h ORDER BY id",
        "SELECT id, CAST(n AS TEXT), CAST(x AS INTEGER) FROM h ORDER BY id",
        "SELECT id, upper(x), length(x), coalesce(x, 'dflt') FROM h ORDER BY id",
        "SELECT id, x || '/' || x FROM h ORDER BY id",
        "SELECT count(x), count(*), count(DISTINCT n) FROM h",
        "SELECT n, count(*) c FROM h GROUP BY n HAVING c >= 1 ORDER BY c, n",
        "SELECT -n FROM h WHERE n IS NOT NULL ORDER BY id",
        "SELECT id FROM h WHERE x = 'Ω≠ascii'",
    ]

    @pytest.fixture
    def conns(self):
        conns = {mode: modes.connect(mode) for mode in modes.MODES}
        for c in conns.values():
            c.execute("CREATE TABLE h (id INTEGER PRIMARY KEY, x TEXT, n INTEGER)")
            c.executemany(
                "INSERT INTO h (id, x, n) VALUES (?, ?, ?)",
                [
                    (1, "O'Malley", 1),
                    (2, "100%", 2),
                    (3, "under_score", None),
                    (4, None, 3),
                    (5, "line\nbreak", 0),
                    (6, "Ω≠ascii", -1),
                    (7, "123", 123),   # numeric string: affinity coercion
                    (8, "", 1),
                ],
            )
        yield conns
        for c in conns.values():
            c.close()

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_rows_both_modes(self, conns, sql):
        reference = _normalise(conns["interpreted"].execute(sql).fetchall())
        for mode, c in conns.items():
            assert _normalise(c.execute(sql).fetchall()) == reference, mode

    def test_error_parity_bad_column_in_order_by(self, conns):
        """Unknown ORDER BY column raises in every mode (rows exist)."""
        for c in conns.values():
            with pytest.raises(minisql.ProgrammingError):
                c.execute("SELECT x FROM h ORDER BY nope").fetchall()

    def test_error_parity_empty_table_bad_where_column(self, conns):
        """The interpreter only raises when a row binds; compiled
        execution must not turn that into an eager error."""
        for c in conns.values():
            c.execute("CREATE TABLE empty_t (a INTEGER)")
            rows = c.execute("SELECT a FROM empty_t WHERE nope = 1").fetchall()
            assert rows == []


#: Statements the compiler refuses, each with its outcome on one-row
#: tables ``t (a, b) = (1, 2)`` and ``u (a) = (1)`` and on empty ones.
#: Every mode must give exactly these: the error's phase, class and
#: message, or the rows.
PINNED = [
    ("SELECT nosuchfn(a) FROM t",
     ("error@execute", "ProgrammingError", "no such function: NOSUCHFN"),
     ("rows", [])),
    ("SELECT a FROM t JOIN u ON t.a = u.a",
     ("error@execute", "ProgrammingError", "ambiguous column name: a"),
     ("rows", [])),
    ("SELECT t.a FROM t JOIN u ON t.a = u.a WHERE a > 0",
     ("error@execute", "ProgrammingError", "ambiguous column name: a"),
     ("rows", [])),
    ("SELECT a IN (SELECT a FROM u) FROM t",
     ("error@execute", "ProgrammingError",
      "cannot evaluate expression node Subquery"),
     ("rows", [])),
    ("SELECT b FROM t ORDER BY 3",
     ("error@execute", "ProgrammingError", "ORDER BY position 3 out of range"),
     ("rows", [])),
    ("SELECT count(*) FROM t GROUP BY 5",
     ("error@execute", "ProgrammingError", "GROUP BY position 5 out of range"),
     ("error@execute", "ProgrammingError", "GROUP BY position 5 out of range")),
    ("SELECT b, count(*) FROM t GROUP BY b ORDER BY 7",
     ("error@execute", "ProgrammingError", "ORDER BY position 7 out of range"),
     ("rows", [])),
    ("SELECT sum(sum(a)) FROM t",
     ("error@execute", "ProgrammingError",
      "misuse of aggregate function SUM() outside GROUP BY context"),
     ("rows", [(None,)])),
    ("SELECT a FROM t WHERE nope = 1",
     ("error@execute", "ProgrammingError", "no such column: nope"),
     ("rows", [])),
    ("SELECT b FROM t ORDER BY nope",
     ("error@execute", "ProgrammingError", "no such column: nope"),
     ("rows", [])),
]


class TestPinnedOutcomes:
    """Errors surface when a row reaches the section that raises them,
    so the same statement raises over one row and not over none."""

    @pytest.mark.parametrize("mode", list(modes.MODES))
    @pytest.mark.parametrize("filled", [True, False], ids=["one-row", "empty"])
    @pytest.mark.parametrize(
        "sql, one_row, empty", PINNED, ids=[sql for sql, _, _ in PINNED]
    )
    def test_outcome(self, mode, filled, sql, one_row, empty):
        conn = modes.connect(mode)
        conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        conn.execute("CREATE TABLE u (a INTEGER)")
        if filled:
            conn.execute("INSERT INTO t VALUES (1, 2)")
            conn.execute("INSERT INTO u VALUES (1)")
            conn.commit()
        assert _outcome(conn, sql, ()) == (one_row if filled else empty)
        conn.close()


class TestPragmaSurface:
    @pytest.fixture
    def conn(self):
        c = minisql.connect()
        c.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        c.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
        yield c
        c.close()

    def test_compile_pragma_is_unknown(self, conn):
        """There is no ``PRAGMA compile``: like any unknown pragma it
        returns nothing and changes nothing, so a later SELECT still
        builds a compiled plan."""
        assert conn.execute("PRAGMA compile(off)").fetchall() == []
        before = conn.stats()
        assert conn.execute("SELECT a FROM t WHERE b > 0").fetchall() == [(1,), (3,)]
        after = conn.stats()
        assert after["plan_cache_misses"] == before["plan_cache_misses"] + 1
        assert after["compile_fallbacks"] == before["compile_fallbacks"]
        flags = [r[2] for r in conn.execute("EXPLAIN SELECT a FROM t WHERE b > 0")]
        assert flags == ["yes"]
        for argument in ("on", "status", "sideways"):
            assert conn.execute(f"PRAGMA compile({argument})").fetchall() == []

    def test_fallback_counter_charges_interpreted_sections(self, conn):
        # Unknown functions raise per row in the interpreter, so the
        # compiler refuses the projection; over an empty table that
        # means zero rows, no error, and one recorded fallback.
        conn.execute("CREATE TABLE s (a INTEGER)")
        before = conn.stats()["compile_fallbacks"]
        rows = conn.execute("SELECT nosuchfn(a) FROM s").fetchall()
        assert rows == []
        assert conn.stats()["compile_fallbacks"] > before


class TestExplainCompiledColumn:
    @pytest.fixture
    def conn(self):
        c = minisql.connect()
        c.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        c.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        c.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
        c.execute("INSERT INTO u VALUES (1, 10), (3, 30)")
        yield c
        c.close()

    def test_plain_explain_has_compiled_column(self, conn):
        cursor = conn.execute("EXPLAIN SELECT a FROM t WHERE b > 1 ORDER BY a")
        assert [d[0] for d in cursor.description] == [
            "id", "detail", "compiled", "vectorized",
        ]
        flags = {row[1]: row[2] for row in cursor.fetchall()}
        assert flags["SCAN t"] == "yes"
        assert flags["ORDER BY (sort)"] == "yes"

    def test_explain_analyze_reports_per_step_compiled(self, conn):
        cursor = conn.execute(
            "EXPLAIN ANALYZE SELECT t.a, u.c FROM t JOIN u ON t.a = u.a "
            "WHERE t.b > 1 GROUP BY t.a ORDER BY t.a"
        )
        rows = cursor.fetchall()
        flags = {row[1]: row[4] for row in rows}
        assert flags["SCAN t"] == "yes"
        assert flags["HASH JOIN u (INNER)"] == "yes"
        assert flags["WHERE filter"] == "yes"
        assert flags["GROUP BY (hash aggregation)"] == "yes"
        assert flags["RESULT"] is None

    def test_compile_off_reports_no(self, conn):
        """With compilation off (the interpreted mode), every step of
        the plan reads no."""
        interpreted = modes.connect("interpreted", conn._database)
        cursor = interpreted.execute("EXPLAIN SELECT a FROM t WHERE b > 1")
        assert all(row[2] == "no" for row in cursor.fetchall())
        rows = interpreted.execute(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE b > 1 ORDER BY a"
        ).fetchall()
        flags = {row[1]: row[4] for row in rows}
        assert flags == {
            "SCAN t": "no", "WHERE filter": "no", "ORDER BY (sort)": "no",
            "RESULT": None,
        }

    def test_uncompilable_where_reports_no(self, conn):
        cursor = conn.execute(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE a IN (SELECT a FROM u)"
        )
        flags = {row[1]: row[4] for row in cursor.fetchall()}
        assert flags["WHERE filter"] == "no"

    def test_subquery_statement_access_step_reads_as_run(self, conn):
        """Execution runs a copy whose IN list holds the subquery's rows,
        and every section of that copy compiles; the access step reports
        that statement (the WHERE step describes the WHERE as written)."""
        sql = "SELECT a FROM t WHERE a IN (SELECT a FROM u)"
        assert conn.execute(f"EXPLAIN {sql}").fetchall() == [
            (0, "SCAN t", "yes", "no"),
        ]
        before = conn.stats()["compile_fallbacks"]
        assert conn.execute(sql).fetchall() == [(1,), (3,)]
        assert conn.stats()["compile_fallbacks"] == before
        refused = conn.execute(
            "EXPLAIN SELECT nosuchfn(a) FROM t WHERE a IN (SELECT a FROM u)"
        )
        assert [row[2] for row in refused] == ["no"]

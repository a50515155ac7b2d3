"""PRAGMA columnar surface: toggles, guards, and EXPLAIN visibility.

The pragma is the only way storage mode changes at runtime, so its
interactions are load-bearing: conversions must be rejected inside
transactions and bulk loads, must preserve data and indexes, and the
``vectorized`` EXPLAIN column must faithfully report whether the
vector pipeline can engage (never for a statement with an interpreted
section).
"""

from __future__ import annotations

import pytest

from repro.core.schema import SchemaManager
from repro.db import minisql
from repro.db.api import connect as api_connect
from tests.db import modes


@pytest.fixture
def conn():
    c = minisql.connect()
    yield c
    c.close()


@pytest.fixture
def populated(conn):
    conn.execute("CREATE TABLE t (k INTEGER, v REAL, x TEXT)")
    conn.execute("CREATE INDEX idx_k ON t (k)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i % 5, float(i), f"s{i}") for i in range(100)],
    )
    conn.commit()
    return conn


class TestToggle:
    def test_status_listing(self, populated):
        cursor = populated.execute("PRAGMA columnar")
        assert [d[0] for d in cursor.description] == ["table", "columnar"]
        assert cursor.fetchall() == [("t", 0)]
        populated.execute("PRAGMA columnar(t on)")
        assert populated.execute("PRAGMA columnar").fetchall() == [("t", 1)]
        assert populated.execute(
            "PRAGMA columnar(t status)"
        ).fetchall() == [("t", 1)]

    def test_default_applies_to_new_tables_only(self, populated):
        populated.execute("PRAGMA columnar(on)")
        populated.execute("CREATE TABLE fresh (a INTEGER)")
        rows = dict(populated.execute("PRAGMA columnar").fetchall())
        assert rows == {"t": 0, "fresh": 1}
        populated.execute("PRAGMA columnar(off)")
        populated.execute("CREATE TABLE later (a INTEGER)")
        assert dict(populated.execute("PRAGMA columnar").fetchall())[
            "later"
        ] == 0

    def test_conversion_preserves_data_and_indexes(self, populated):
        oracle = populated.execute(
            "SELECT k, v, x FROM t ORDER BY v"
        ).fetchall()
        populated.execute("PRAGMA columnar(t on)")
        assert populated.execute(
            "SELECT k, v, x FROM t ORDER BY v"
        ).fetchall() == oracle
        probes = populated.stats()["index_eq_probes"]
        assert populated.execute(
            "SELECT count(*) FROM t WHERE k = 3"
        ).fetchone() == (20,)
        assert populated.stats()["index_eq_probes"] > probes
        populated.execute("PRAGMA columnar(t off)")
        assert populated.execute(
            "SELECT k, v, x FROM t ORDER BY v"
        ).fetchall() == oracle

    def test_repeated_toggle_is_noop(self, populated):
        populated.execute("PRAGMA columnar(t on)")
        converted = populated.stats()["columnar_conversions"]
        populated.execute("PRAGMA columnar(t on)")
        assert populated.stats()["columnar_conversions"] == converted

    def test_unknown_table_rejected(self, conn):
        with pytest.raises(minisql.MiniSQLError):
            conn.execute("PRAGMA columnar(nosuch on)")

    def test_bad_argument_rejected(self, populated):
        with pytest.raises(minisql.ProgrammingError):
            populated.execute("PRAGMA columnar(t sideways)")


class TestTransactionGuards:
    def test_implicit_transaction_rejects_toggle(self, populated):
        populated.execute("INSERT INTO t VALUES (9, 9.0, 'nine')")
        with pytest.raises(minisql.OperationalError):
            populated.execute("PRAGMA columnar(t on)")
        populated.rollback()
        populated.execute("PRAGMA columnar(t on)")  # fine once closed

    def test_explicit_transaction_rejects_toggle(self, populated):
        populated.execute("BEGIN")
        with pytest.raises(minisql.OperationalError):
            populated.execute("PRAGMA columnar(t on)")
        populated.rollback()

    def test_bulk_load_rejects_toggle(self, populated):
        with populated.bulk_load():
            populated.execute("INSERT INTO t VALUES (7, 7.0, 'seven')")
            with pytest.raises(minisql.OperationalError):
                populated.execute("PRAGMA columnar(t on)")
        populated.commit()

    def test_bulk_load_into_columnar_table(self, populated):
        populated.execute("PRAGMA columnar(t on)")
        with populated.bulk_load():
            populated.executemany(
                "INSERT INTO t VALUES (?, ?, ?)",
                [(i % 5, float(i), f"b{i}") for i in range(100, 300)],
            )
        populated.commit()
        assert populated.execute(
            "SELECT count(*) FROM t"
        ).fetchone() == (300,)
        # Rebuilt indexes still serve point lookups on the column store.
        assert populated.execute(
            "SELECT count(*) FROM t WHERE k = 2"
        ).fetchone() == (60,)
        assert populated.execute(
            "PRAGMA integrity_check"
        ).fetchall() == [("ok",)]


class TestVectorGating:
    def test_compile_off_never_vectorizes(self, populated):
        """With compilation off (the interpreted mode), a statement with
        an interpreted section has no vector plan."""
        populated.execute("PRAGMA columnar(t on)")
        interpreted = modes.connect("interpreted", populated._database)
        oracle = [(100, sum(float(i) for i in range(100)))]
        assert interpreted.execute(
            "SELECT count(*), sum(v) FROM t"
        ).fetchall() == [(100, pytest.approx(oracle[0][1]))]
        stats = interpreted.stats()
        assert stats["vector_selects"] == 0
        assert stats["vector_fallbacks"] == 0
        cursor = interpreted.execute("EXPLAIN SELECT sum(v) FROM t")
        assert all(row[3] == "no" for row in cursor.fetchall())

    def test_vectorized_select_counts(self, populated):
        populated.execute("PRAGMA columnar(t on)")
        before = populated.stats()["vector_selects"]
        populated.execute("SELECT sum(v), max(k) FROM t WHERE k < 4").fetchall()
        assert populated.stats()["vector_selects"] == before + 1

    def test_index_probe_counted_once_either_way(self, populated):
        """A probe answered by the vector plan charges the same access
        counters as the row path; one that falls back (impure column)
        is charged once, by the row path, plus one fallback."""
        populated.execute("PRAGMA columnar(t on)")
        keys = ("index_eq_probes", "rows_scanned", "rows_via_index",
                "full_scans", "vector_selects", "vector_fallbacks")

        def charged(sql):
            before = populated.stats()
            rows = populated.execute(sql).fetchall()
            after = populated.stats()
            return rows, {k: after[k] - before[k] for k in keys}

        sql = "SELECT sum(v), count(*) FROM t WHERE k = 3"
        rows, counts = charged(sql)
        assert rows == [(sum(float(i) for i in range(3, 100, 5)), 20)]
        assert counts == {"index_eq_probes": 1, "rows_scanned": 20,
                          "rows_via_index": 20, "full_scans": 0,
                          "vector_selects": 1, "vector_fallbacks": 0}
        populated.execute("UPDATE t SET v = 'text' WHERE k = 4")
        populated.commit()  # v now holds a string: the column is impure
        assert charged(sql) == (rows, {
            "index_eq_probes": 1, "rows_scanned": 20, "rows_via_index": 20,
            "full_scans": 0, "vector_selects": 0, "vector_fallbacks": 1,
        })


class TestExplainVectorizedColumn:
    def test_plain_explain_row_vs_columnar(self, populated):
        flags = {
            row[1]: row[3]
            for row in populated.execute(
                "EXPLAIN SELECT sum(v) FROM t WHERE k < 4"
            ).fetchall()
        }
        assert flags["SCAN t"] == "no"
        populated.execute("PRAGMA columnar(t on)")
        flags = {
            row[1]: row[3]
            for row in populated.execute(
                "EXPLAIN SELECT sum(v) FROM t WHERE k < 4"
            ).fetchall()
        }
        assert flags["SCAN t"] == "yes"

    def test_analyze_reports_per_step_vectorized(self, populated):
        populated.execute("PRAGMA columnar(t on)")
        rows = populated.execute(
            "EXPLAIN ANALYZE SELECT sum(v) FROM t WHERE k < 4"
        ).fetchall()
        flags = {row[1]: row[5] for row in rows}
        assert flags["SCAN t"] == "yes"
        assert flags["WHERE filter"] == "yes"
        assert flags["GROUP BY (hash aggregation)"] == "yes"
        assert flags["RESULT"] is None

    def test_subquery_statement_access_step_reads_as_run(self, conn):
        """The access step reports the statement as it runs, with the
        IN (SELECT ...) list turned into literals, as its ``compiled``
        column does: that statement and the subquery each run the
        vector plan.  The WHERE step describes the WHERE as written."""
        conn.execute("PRAGMA columnar(on)")
        conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        conn.execute("CREATE TABLE u (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1, 2), (3, 4), (5, 6)")
        conn.execute("INSERT INTO u VALUES (1), (3)")
        conn.commit()
        sql = "SELECT a FROM t WHERE a IN (SELECT a FROM u)"
        assert conn.execute(f"EXPLAIN {sql}").fetchall() == [
            (0, "SCAN t", "yes", "yes"),
        ]
        before = conn.stats()["vector_selects"]
        assert conn.execute(sql).fetchall() == [(1,), (3,)]
        assert conn.stats()["vector_selects"] == before + 2
        rows = conn.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        flags = {row[1]: row[5] for row in rows}
        assert flags["SCAN t"] == "yes"
        assert flags["WHERE filter"] == "no"

    def test_analyze_grouped_query_not_vector_flagged(self, populated):
        populated.execute("PRAGMA columnar(t on)")
        rows = populated.execute(
            "EXPLAIN ANALYZE SELECT k, sum(v) FROM t GROUP BY k"
        ).fetchall()
        flags = {row[1]: row[5] for row in rows}
        # Grouped aggregation stays on the compiled row pipeline.
        assert flags["GROUP BY (hash aggregation)"] == "no"


class TestSchemaInstallDefaults:
    def test_hot_tables_install_columnar_on_minisql(self):
        conn = api_connect("minisql://:memory:")
        try:
            SchemaManager(conn).install()
            status = dict(conn.execute("PRAGMA columnar").fetchall())
            for table in SchemaManager.COLUMNAR_TABLES:
                assert status[table] == 1, table
            assert status["application"] == 0  # cold tables stay row
        finally:
            conn.close()

    def test_sqlite_backend_unaffected(self):
        conn = api_connect("sqlite://:memory:")
        try:
            SchemaManager(conn).install()  # must not emit the pragma
            assert conn.table_names()
        finally:
            conn.close()

"""MiniSQL edge cases collected during development."""

import pytest

from repro.db import minisql
from tests.db import modes


@pytest.fixture(
    params=list(modes.MODES),
    ids=modes.ids(compiled="compile-on", interpreted="compile-off"),
)
def conn(request):
    """Every edge case runs in each execution mode — the modes must be
    indistinguishable."""
    c = modes.connect(request.param)
    yield c
    c.close()


class TestNullSemantics:
    @pytest.fixture
    def t(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        return conn

    def test_where_null_comparison_excludes(self, t):
        assert t.execute("SELECT x FROM t WHERE x > 0").fetchall() == [(1,), (3,)]

    def test_not_on_null_stays_null(self, t):
        rows = t.execute("SELECT x FROM t WHERE NOT (x > 0)").fetchall()
        assert rows == []  # NULL row filtered either way

    def test_null_in_in_list(self, t):
        rows = t.execute("SELECT x FROM t WHERE x IN (1, NULL)").fetchall()
        assert rows == [(1,)]

    def test_not_in_with_null_matches_nothing(self, t):
        rows = t.execute("SELECT x FROM t WHERE x NOT IN (1, NULL)").fetchall()
        assert rows == []

    def test_explicit_null_vs_default(self, conn):
        conn.execute("CREATE TABLE d (x INTEGER, y TEXT DEFAULT 'dft')")
        conn.execute("INSERT INTO d (x) VALUES (1)")          # omitted -> default
        conn.execute("INSERT INTO d (x, y) VALUES (2, NULL)")  # explicit NULL
        rows = conn.execute("SELECT x, y FROM d ORDER BY x").fetchall()
        assert rows == [(1, "dft"), (2, None)]

    def test_explicit_null_on_integer_pk_autoassigns(self, conn):
        conn.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
        conn.execute("INSERT INTO p (id, v) VALUES (NULL, 'a')")
        assert conn.execute("SELECT id FROM p").fetchone() == (1,)

    def test_explicit_null_on_not_null_rejected(self, conn):
        conn.execute("CREATE TABLE n (x TEXT NOT NULL DEFAULT 'd')")
        with pytest.raises(minisql.IntegrityError):
            conn.execute("INSERT INTO n (x) VALUES (NULL)")


class TestIdentifierQuirks:
    def test_keyword_like_column_names(self, conn):
        conn.execute('CREATE TABLE k ("index" INTEGER, key INTEGER)')
        conn.execute('INSERT INTO k VALUES (1, 2)')
        assert conn.execute('SELECT "index", key FROM k').fetchone() == (1, 2)

    def test_case_insensitive_table_lookup(self, conn):
        conn.execute("CREATE TABLE MiXeD (x INTEGER)")
        conn.execute("INSERT INTO mixed VALUES (1)")
        assert conn.execute("SELECT X FROM MIXED").fetchone() == (1,)

    def test_quoted_identifier_with_space(self, conn):
        conn.execute('CREATE TABLE s ("my column" INTEGER)')
        conn.execute("INSERT INTO s VALUES (9)")
        assert conn.execute('SELECT "my column" FROM s').fetchone() == (9,)


class TestSubqueries:
    @pytest.fixture
    def rel(self, conn):
        conn.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, tag TEXT)")
        conn.execute("CREATE TABLE b (a_id INTEGER, v REAL)")
        conn.execute("INSERT INTO a (tag) VALUES ('x'), ('y'), ('z')")
        conn.execute("INSERT INTO b VALUES (1, 1.0), (1, 2.0), (3, 9.0)")
        return conn

    def test_in_subquery(self, rel):
        rows = rel.execute(
            "SELECT tag FROM a WHERE id IN (SELECT a_id FROM b) ORDER BY tag"
        ).fetchall()
        assert rows == [("x",), ("z",)]

    def test_not_in_subquery(self, rel):
        rows = rel.execute(
            "SELECT tag FROM a WHERE id NOT IN (SELECT a_id FROM b)"
        ).fetchall()
        assert rows == [("y",)]

    def test_subquery_with_where(self, rel):
        rows = rel.execute(
            "SELECT tag FROM a WHERE id IN (SELECT a_id FROM b WHERE v > 5)"
        ).fetchall()
        assert rows == [("z",)]

    def test_subquery_in_delete(self, rel):
        rel.execute("DELETE FROM a WHERE id IN (SELECT a_id FROM b)")
        assert rel.execute("SELECT count(*) FROM a").fetchone() == (1,)

    def test_subquery_in_update(self, rel):
        rel.execute(
            "UPDATE a SET tag = 'hit' WHERE id IN (SELECT a_id FROM b)"
        )
        rows = rel.execute("SELECT tag FROM a ORDER BY id").fetchall()
        assert rows == [("hit",), ("y",), ("hit",)]

    def test_multi_column_subquery_rejected(self, rel):
        with pytest.raises(minisql.ProgrammingError, match="one column"):
            rel.execute("SELECT * FROM a WHERE id IN (SELECT a_id, v FROM b)")

    def test_statement_cache_not_corrupted_by_rewrite(self, rel):
        """Subquery materialisation must not mutate the cached AST."""
        sql = "SELECT count(*) FROM a WHERE id IN (SELECT a_id FROM b)"
        first = rel.execute(sql).fetchone()
        rel.execute("INSERT INTO b VALUES (2, 5.0)")
        second = rel.execute(sql).fetchone()
        assert first == (2,)
        assert second == (3,)  # re-evaluated, not frozen at first run


class TestAggregateEdgeCases:
    def test_group_by_null_groups_together(self, conn):
        conn.execute("CREATE TABLE g (k TEXT, v INTEGER)")
        conn.execute(
            "INSERT INTO g VALUES (NULL, 1), (NULL, 2), ('a', 3)"
        )
        rows = conn.execute(
            "SELECT k, sum(v) FROM g GROUP BY k ORDER BY k"
        ).fetchall()
        assert rows == [(None, 3), ("a", 3)]

    def test_having_without_group_by(self, conn):
        conn.execute("CREATE TABLE h (v INTEGER)")
        conn.execute("INSERT INTO h VALUES (1), (2)")
        assert conn.execute(
            "SELECT sum(v) FROM h HAVING sum(v) > 2"
        ).fetchall() == [(3,)]
        assert conn.execute(
            "SELECT sum(v) FROM h HAVING sum(v) > 10"
        ).fetchall() == []

    def test_aggregate_of_expression(self, conn):
        conn.execute("CREATE TABLE e (a INTEGER, b INTEGER)")
        conn.execute("INSERT INTO e VALUES (1, 2), (3, 4)")
        assert conn.execute("SELECT sum(a * b) FROM e").fetchone() == (14,)

    def test_expression_of_aggregates(self, conn):
        conn.execute("CREATE TABLE e (a INTEGER)")
        conn.execute("INSERT INTO e VALUES (2), (4)")
        assert conn.execute(
            "SELECT max(a) - min(a), sum(a) / count(a) FROM e"
        ).fetchone() == (2, 3)

    def test_scalar_max_in_grouped_select(self, conn):
        """Two-argument max() is a scalar function, also in the select
        list of a grouped query (as in sqlite)."""
        conn.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
        conn.execute("INSERT INTO s VALUES (1, 5), (2, 1)")
        assert conn.execute(
            "SELECT max(a, b), count(*) FROM s GROUP BY a ORDER BY a"
        ).fetchall() == [(5, 1), (2, 1)]

    def test_group_concat(self, conn):
        conn.execute("CREATE TABLE c (k TEXT, v TEXT)")
        conn.execute("INSERT INTO c VALUES ('a','x'), ('a','y'), ('b','z')")
        rows = conn.execute(
            "SELECT k, group_concat(v) FROM c GROUP BY k ORDER BY k"
        ).fetchall()
        assert rows == [("a", "x,y"), ("b", "z")]


class TestLimitsAndOrdering:
    def test_limit_zero(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        assert conn.execute("SELECT x FROM t LIMIT 0").fetchall() == []

    def test_negative_limit_means_all(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        assert len(conn.execute("SELECT x FROM t LIMIT -1").fetchall()) == 2

    def test_limit_placeholder(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(10)])
        rows = conn.execute(
            "SELECT x FROM t ORDER BY x LIMIT ? OFFSET ?", (3, 4)
        ).fetchall()
        assert rows == [(4,), (5,), (6,)]

    def test_order_by_expression(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (-5), (3)")
        rows = conn.execute("SELECT x FROM t ORDER BY abs(x)").fetchall()
        assert rows == [(1,), (3,), (-5,)]

    def test_mixed_type_ordering(self, conn):
        conn.execute("CREATE TABLE t (x NUMERIC)")
        conn.execute("INSERT INTO t VALUES (2), ('b'), (NULL), (1.5), ('a')")
        rows = [r[0] for r in conn.execute("SELECT x FROM t ORDER BY x")]
        assert rows == [None, 1.5, 2, "a", "b"]


class TestDDLTransactions:
    def test_create_table_rollback_releases_pk_index(self, conn):
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        conn.rollback()
        # the implicit PK index must be gone too
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        conn.execute("INSERT INTO t (x) VALUES (1)")
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)

    def test_create_index_rollback(self, conn):
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.commit()
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX idx_x ON t (x)")
        conn.rollback()
        conn.execute("CREATE INDEX idx_x ON t (x)")  # must not collide
        conn.commit()

    def test_drop_table_rollback_restores_indexes(self, conn):
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        conn.execute("CREATE INDEX idx_t ON t (id)")
        conn.execute("INSERT INTO t (id) VALUES (1)")
        conn.commit()
        conn.execute("BEGIN")
        conn.execute("DROP TABLE t")
        conn.rollback()
        # table and its registered indexes survive
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)
        with pytest.raises(minisql.OperationalError, match="already exists"):
            conn.execute("CREATE INDEX idx_t ON t (id)")

    def test_unique_rollback_releases_constraint_state(self, conn):
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE u (x INTEGER UNIQUE)")
        conn.execute("INSERT INTO u VALUES (1)")
        conn.rollback()
        conn.execute("CREATE TABLE u (x INTEGER UNIQUE)")
        conn.execute("INSERT INTO u VALUES (1)")  # fresh constraint state
        assert conn.execute("SELECT count(*) FROM u").fetchone() == (1,)

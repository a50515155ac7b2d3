"""``DBConnection.query_columns``: the same values as ``query``, by column.

On MiniSQL a vectorized SELECT hands its output columns over without
ever building row tuples, and a typed column that one contiguous index
probe reads arrives as an ``array.array`` copy (which numpy takes
unboxed).  Whatever path a statement takes — the vector plan, the row
pipeline, a transposed sort, sqlite — each column must equal the
transpose of ``query`` value by value and type by type.
"""

from __future__ import annotations

from array import array

import pytest

from repro.db.api import IntegrityError, connect
from tests.db import modes
from tests.test_differential_sql import CORPUS, Err, MiniSQLOnly, PROBE_CORPUS

BACKENDS = ["sqlite", *modes.MODES]


@pytest.fixture(params=BACKENDS)
def conn(request):
    """sqlite, and MiniSQL in each execution mode."""
    if request.param == "sqlite":
        connection = connect("sqlite://:memory:")
    else:
        connection = modes.enter(connect("minisql://:memory:"), request.param)
    connection.mode = request.param
    yield connection
    connection.close()


def typed(values) -> list:
    return [(type(v), v) for v in values]


def assert_columns_are_transposed_rows(conn, sql, params=()):
    """``query_columns`` equals the transpose of ``query``; returns the
    columns."""
    rows = conn.query(sql, params)
    columns = conn.query_columns(sql, params)
    assert len(columns) == len(conn.execute(sql, params).description), sql
    for i, column in enumerate(columns):
        assert typed(column) == typed(row[i] for row in rows), (sql, i)
    return columns


def test_corpus(conn):
    """Every SELECT of the differential corpus (PROBE_CORPUS included),
    after the statements before it."""
    assert all(entry in CORPUS for entry in PROBE_CORPUS)
    selects = 0
    for entry in CORPUS:
        if isinstance(entry, Err):
            with pytest.raises(IntegrityError):
                conn.execute(entry.sql, entry.params)
            conn.rollback()
            continue
        if isinstance(entry, MiniSQLOnly):
            if conn.mode != "sqlite":
                conn.execute(*entry)
                conn.commit()
            continue
        sql, params = entry
        if not sql.lstrip().upper().startswith("SELECT"):
            conn.execute(sql, params)
            conn.commit()
            continue
        assert_columns_are_transposed_rows(conn, sql, params)
        selects += 1
    assert selects >= 50
    if conn.mode == "columnar":
        # The vector plan answered some of them (the point of the mode).
        assert conn.stats()["vector_selects"] > 0


@pytest.fixture
def probe(conn):
    """Table ``p`` with a hash index on ``k`` and five rows for each
    of keys 1-3, each key's rows appended in one run."""
    conn.execute(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, e INTEGER, "
        "v REAL, s TEXT)"
    )
    conn.execute("CREATE INDEX idx_p_k ON p (k)")
    conn.executemany(
        "INSERT INTO p (id, k, e, v, s) VALUES (?, ?, ?, ?, ?)",
        [
            (1 + 5 * (k - 1) + i, k, 10 * k + i, 0.5 * i - k, f"s{k}.{i}")
            for k in (1, 2, 3) for i in range(5)
        ],
    )
    conn.commit()
    return conn


SELECT_K = "SELECT id, e, v, s FROM p WHERE k = ?"


class TestTargeted:
    def test_contiguous_probe_is_an_array_copy(self, probe):
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        assert list(columns[1]) == [20, 21, 22, 23, 24]
        if probe.mode == "columnar":
            # The fast path: typed columns come back as arrays.
            assert [type(c) for c in columns] == [array, array, array, list]
            assert [c.typecode for c in columns[:3]] == ["q", "q", "d"]

    def test_write_after_the_fetch_leaves_the_columns(self, probe):
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        before = [list(c) for c in columns]
        probe.execute("UPDATE p SET e = -1, v = -1.0, s = 'x' WHERE k = 2")
        probe.execute("INSERT INTO p (id, k, e, v, s) VALUES (99, 2, 7, 7.0, 'y')")
        probe.execute("DELETE FROM p WHERE id = 8")
        probe.commit()
        assert [list(c) for c in columns] == before
        assert assert_columns_are_transposed_rows(probe, SELECT_K, (2,))[1] != before[1]

    def test_scattered_slots(self, conn):
        """Rows of two keys inserted alternately: no run of slots."""
        conn.execute("CREATE TABLE q (k INTEGER, e INTEGER, v REAL)")
        conn.execute("CREATE INDEX idx_q_k ON q (k)")
        conn.executemany(
            "INSERT INTO q (k, e, v) VALUES (?, ?, ?)",
            [(i % 2, i, i / 4) for i in range(12)],
        )
        conn.commit()
        columns = assert_columns_are_transposed_rows(
            conn, "SELECT e, v FROM q WHERE k = 1"
        )
        assert list(columns[0]) == [1, 3, 5, 7, 9, 11]
        if conn.mode == "columnar":
            assert [type(c) for c in columns] == [list, list]

    def test_tombstone_inside_the_run(self, probe):
        probe.execute("DELETE FROM p WHERE id = 8")
        probe.commit()
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        assert list(columns[0]) == [6, 7, 9, 10]
        if probe.mode == "columnar":
            assert type(columns[1]) is list

    def test_tombstone_outside_the_run(self, probe):
        probe.execute("DELETE FROM p WHERE id = 3")
        probe.commit()
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        if probe.mode == "columnar":
            assert type(columns[1]) is array

    def test_null_in_a_real_column(self, probe):
        probe.execute("UPDATE p SET v = NULL WHERE id = 8")
        probe.commit()
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        assert list(columns[2])[2] is None
        if probe.mode == "columnar":
            assert type(columns[2]) is list
            assert type(columns[1]) is array
            # A NULL outside the run leaves the run's slice typed.
            assert type(assert_columns_are_transposed_rows(
                probe, SELECT_K, (3,))[2]) is array

    def test_escape_hatch_value_in_an_integer_column(self, probe):
        """MiniSQL keeps 2.5 in an INTEGER column's escape hatch.  The
        vector plan gathers it value by value, both for a named column
        and for ``*``: a projection copies values and needs no purity
        check."""
        probe.execute("UPDATE p SET e = 2.5 WHERE id = 9")
        probe.commit()
        if probe.mode == "columnar":
            before = probe.stats()
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (2,))
        assert list(columns[1])[3] == 2.5
        if probe.mode == "columnar":
            after = probe.stats()
            assert after["vector_fallbacks"] == before["vector_fallbacks"]
            assert after["vector_selects"] > before["vector_selects"]
        columns = assert_columns_are_transposed_rows(
            probe, "SELECT * FROM p WHERE k = ?", (2,)
        )
        assert list(columns[2])[3] == 2.5
        if probe.mode == "columnar":
            assert [type(c) for c in columns] == [array, array, list, array, list]

    @pytest.mark.parametrize("sql", [
        "SELECT id, e, v FROM p WHERE k = 2 ORDER BY v DESC",
        "SELECT DISTINCT k FROM p WHERE k = 2",
        "SELECT id, v FROM p WHERE k = 2 LIMIT 2 OFFSET 1",
        "SELECT id, s FROM p WHERE k = 2 UNION ALL SELECT id, s FROM p WHERE k = 3",
        "SELECT e FROM p WHERE k = 1 EXCEPT SELECT e FROM p WHERE e > 12",
        "SELECT count(*), sum(v) FROM p WHERE k = 2",
    ])
    def test_statements_read_back_as_rows(self, probe, sql):
        """A sort, DISTINCT, LIMIT, compound operator or aggregate reads
        the plan's output as rows; the columns are their transpose."""
        columns = assert_columns_are_transposed_rows(probe, sql)
        assert all(type(c) is list for c in columns)

    def test_empty_result_has_one_empty_sequence_per_column(self, probe):
        columns = assert_columns_are_transposed_rows(probe, SELECT_K, (99,))
        assert [list(c) for c in columns] == [[], [], [], []]
        columns = assert_columns_are_transposed_rows(
            probe, "SELECT id, v FROM p WHERE k = 1 AND v > 100.0"
        )
        assert [list(c) for c in columns] == [[], []]

    def test_runs_through_execute(self, probe):
        """One ``db.execute`` span per call, like ``query``."""
        from repro.obs.trace import tracer

        tracer.clear()
        tracer.enable()
        try:
            probe.query_columns(SELECT_K, (2,))
        finally:
            tracer.disable()
        assert [s["name"] for s in tracer.drain()].count("db.execute") == 1


def test_a_fetched_row_then_columns_gives_the_rest():
    """A MiniSQL cursor whose first row was read transposes the rest."""
    conn = modes.enter(connect("minisql://:memory:"), "columnar")
    conn.execute("CREATE TABLE t (a INTEGER, b REAL)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i / 2) for i in range(4)])
    cursor = conn.execute("SELECT a, b FROM t")
    assert cursor.fetchone() == (0, 0.0)
    assert cursor.fetchcolumns() == [[1, 2, 3], [0.5, 1.0, 1.5]]
    assert cursor.fetchone() is None
    cursor = conn.execute("SELECT a, b FROM t")
    assert [list(c) for c in cursor.fetchcolumns()] == [[0, 1, 2, 3], [0.0, 0.5, 1.0, 1.5]]
    assert cursor.fetchall() == []
    conn.close()


def test_slots_of_is_a_range_only_for_one_ascending_run():
    from repro.db.minisql.storage import Column, ColumnTable

    table = ColumnTable("t", [Column("a", "INTEGER"), Column("b", "REAL")])
    table.rows.update({rowid: [rowid, rowid / 2] for rowid in (1, 2, 3, 4)})
    assert table.slots_of([2, 3, 4]) == range(1, 4)
    assert table.column_gather(1, range(1, 4)) == array("d", [1.0, 1.5, 2.0])
    assert table.slots_of([1, 3]) == [0, 2]
    assert table.slots_of([]) == []
    # Slots that cover a run but not in ascending order stay a list.
    table.renumber([1, 3, 2, 4])
    assert table.slots_of([1, 2, 3, 4]) == [0, 2, 1, 3]

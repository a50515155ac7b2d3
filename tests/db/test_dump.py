"""Tests for MiniSQL dump/restore, including cross-engine restores."""

import sqlite3

import pytest

from repro.db import minisql
from repro.db.minisql import dump_sql, load_database, save_database


@pytest.fixture
def populated():
    conn = minisql.connect()
    conn.execute(
        "CREATE TABLE app (id INTEGER PRIMARY KEY AUTOINCREMENT, "
        "name TEXT NOT NULL, version TEXT DEFAULT 'none')"
    )
    conn.execute("CREATE TABLE vals (app_id INTEGER REFERENCES app(id), v REAL)")
    conn.execute("CREATE INDEX idx_vals_app ON vals (app_id)")
    conn.executemany(
        "INSERT INTO app (name, version) VALUES (?, ?)",
        [("sppm", "1.0"), ("o'brien", None), ("evh1", "2")],
    )
    conn.executemany(
        "INSERT INTO vals VALUES (?, ?)",
        [(1, 1.5), (1, -2.25), (2, 0.0), (3, 1e-9)],
    )
    conn.commit()
    return conn


class TestDump:
    def test_dump_contains_schema_and_rows(self, populated):
        statements = list(dump_sql(populated))
        text = "\n".join(statements)
        assert "CREATE TABLE app" in text
        assert "PRIMARY KEY AUTOINCREMENT" in text
        assert "REFERENCES app(id)" in text
        assert text.count("INSERT INTO app") == 3
        assert text.count("INSERT INTO vals") == 4
        assert "CREATE INDEX idx_vals_app" in text

    def test_quotes_escaped(self, populated):
        text = "\n".join(dump_sql(populated))
        assert "'o''brien'" in text

    def test_implicit_indexes_not_dumped(self, populated):
        text = "\n".join(dump_sql(populated))
        assert "__pk_" not in text


class TestRestore:
    def test_roundtrip_into_minisql(self, populated, tmp_path):
        path = save_database(populated, tmp_path / "dump.sql")
        fresh = minisql.connect()
        load_database(fresh, path)
        assert fresh.execute("SELECT count(*) FROM vals").fetchone() == (4,)
        rows = fresh.execute("SELECT name, version FROM app ORDER BY id").fetchall()
        assert rows == [("sppm", "1.0"), ("o'brien", None), ("evh1", "2")]

    def test_autoincrement_continues_after_restore(self, populated, tmp_path):
        path = save_database(populated, tmp_path / "dump.sql")
        fresh = minisql.connect()
        load_database(fresh, path)
        cur = fresh.execute("INSERT INTO app (name) VALUES ('new')")
        assert cur.lastrowid == 4

    def test_index_restored_and_probed(self, populated, tmp_path):
        path = save_database(populated, tmp_path / "dump.sql")
        fresh = minisql.connect()
        load_database(fresh, path)
        rows = fresh.execute("SELECT v FROM vals WHERE app_id = 1").fetchall()
        assert sorted(rows) == [(-2.25,), (1.5,)]

    def test_restore_into_sqlite(self, populated, tmp_path):
        """The dump is portable SQL: sqlite must accept it unchanged."""
        path = save_database(populated, tmp_path / "dump.sql")
        raw = sqlite3.connect(":memory:")
        raw.executescript(path.read_text())
        rows = raw.execute("SELECT name FROM app ORDER BY id").fetchall()
        assert [r[0] for r in rows] == ["sppm", "o'brien", "evh1"]
        (count,) = raw.execute("SELECT count(*) FROM vals").fetchone()
        assert count == 4

    def test_unique_constraints_restore_into_sqlite(self, tmp_path):
        conn = minisql.connect()
        conn.execute(
            "CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT UNIQUE, "
            "a INTEGER, b INTEGER, UNIQUE (a, b))"
        )
        conn.execute("INSERT INTO u (name, a, b) VALUES ('x', 1, 2)")
        conn.commit()
        raw = sqlite3.connect(":memory:")
        raw.executescript(save_database(conn, tmp_path / "dump.sql").read_text())
        for sql in (
            "INSERT INTO u (name, a, b) VALUES ('x', 3, 4)",
            "INSERT INTO u (name, a, b) VALUES ('y', 1, 2)",
        ):
            with pytest.raises(sqlite3.IntegrityError):
                raw.execute(sql)

    def test_float_fidelity(self, populated, tmp_path):
        path = save_database(populated, tmp_path / "dump.sql")
        fresh = minisql.connect()
        load_database(fresh, path)
        values = {
            v for (v,) in fresh.execute("SELECT v FROM vals").fetchall()
        }
        assert values == {1.5, -2.25, 0.0, 1e-9}


#: Values engineered to break naive line-based restore: raw newlines,
#: carriage returns, continuation lines masquerading as comments or
#: transaction framing.  Every one must round-trip byte-for-byte.
HOSTILE_STRINGS = [
    "line1\nline2",
    "cr\rmiddle",
    "crlf\r\nend",
    "blank\n\n\nlines",
    "looks like\n-- a comment",
    "-- leading comment",
    "BEGIN;",
    "framed\nBEGIN;\nCOMMIT;\ntail",
    "quote'and\nnewline",
    "trailing newline\n",
]


class TestHostileStringRoundTrip:
    @pytest.fixture
    def hostile_conn(self):
        conn = minisql.connect()
        conn.execute("CREATE TABLE h (id INTEGER PRIMARY KEY, s TEXT)")
        conn.executemany(
            "INSERT INTO h (s) VALUES (?)", [(s,) for s in HOSTILE_STRINGS]
        )
        conn.commit()
        return conn

    def test_roundtrip_into_minisql(self, hostile_conn, tmp_path):
        path = save_database(hostile_conn, tmp_path / "dump.sql")
        fresh = minisql.connect()
        load_database(fresh, path)
        rows = fresh.execute("SELECT s FROM h ORDER BY id").fetchall()
        assert [r[0] for r in rows] == HOSTILE_STRINGS

    def test_roundtrip_into_sqlite(self, hostile_conn, tmp_path):
        path = save_database(hostile_conn, tmp_path / "dump.sql")
        raw = sqlite3.connect(":memory:")
        with open(path, encoding="utf-8", newline="") as fh:
            raw.executescript(fh.read())
        rows = raw.execute("SELECT s FROM h ORDER BY id").fetchall()
        assert [r[0] for r in rows] == HOSTILE_STRINGS

    def test_double_roundtrip_is_stable(self, hostile_conn, tmp_path):
        """Dump → restore → dump again must reproduce the same script
        (no cumulative mangling of control characters)."""
        first = save_database(hostile_conn, tmp_path / "one.sql")
        fresh = minisql.connect()
        load_database(fresh, first)
        second = save_database(fresh, tmp_path / "two.sql")
        assert first.read_bytes() == second.read_bytes()


class TestPerfDMFArchiveDump:
    def test_whole_archive_roundtrip(self, tmp_path):
        """Dump/restore a real PerfDMF archive on the MiniSQL backend."""
        from repro.core.session import PerfDMFSession
        from repro.tau.apps import EVH1

        session = PerfDMFSession("minisql://:memory:")
        app = session.create_application("evh1")
        exp = session.create_experiment(app, "e")
        source = EVH1(problem_size=0.05, timesteps=1).run(2)
        trial = session.save_trial(source, exp, "t")
        expected = session.count_data_points(trial)

        path = save_database(session.connection._raw, tmp_path / "archive.sql")

        restored_conn = minisql.connect()
        load_database(restored_conn, path)
        from repro.db.api import DBConnection
        from repro.db.dialects import get_dialect

        wrapped = DBConnection(
            restored_conn, "minisql", get_dialect("minisql"), "minisql://restored"
        )
        restored = PerfDMFSession(wrapped, create=False)
        restored.set_trial(trial.id)
        assert restored.count_data_points() == expected
        back = restored.load_datasource()
        assert back.num_threads == source.num_threads

    def test_archive_dump_restores_into_sqlite(self, tmp_path):
        """Composite-PK tables (interval_location_profile) must dump as a
        table-level PRIMARY KEY constraint — sqlite rejects repeated
        inline markers with "more than one primary key"."""
        from repro.core.session import PerfDMFSession
        from repro.tau.apps import EVH1

        session = PerfDMFSession("minisql://:memory:")
        app = session.create_application("evh1")
        exp = session.create_experiment(app, "e")
        source = EVH1(problem_size=0.05, timesteps=1).run(2)
        trial = session.save_trial(source, exp, "t")
        expected = session.count_data_points(trial)

        path = save_database(session.connection._raw, tmp_path / "archive.sql")

        raw = sqlite3.connect(":memory:")
        raw.executescript(path.read_text())
        (count,) = raw.execute(
            "SELECT count(*) FROM interval_location_profile"
        ).fetchone()
        assert count == expected
        schema = raw.execute(
            "SELECT sql FROM sqlite_master WHERE name = 'interval_location_profile'"
        ).fetchone()[0]
        assert "PRIMARY KEY (interval_event, node, context, thread, metric)" in schema

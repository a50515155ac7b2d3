"""Checkpoint restore differential: a clean close followed by a reopen in
a fresh interpreter must give back exactly the database that was closed.

Every archive in the corpus is built through the engine and described
(rows and rowids, next rowid, autoincrement mark, storage layout, index
classes and contents) before a clean close.  One child interpreter then
reopens each archive, describes it again, runs ``PRAGMA
integrity_check`` and the corpus queries, and writes a new checkpoint.
Both descriptions must match, and the re-dump must be byte-identical to
the checkpoint the close wrote.

The restore decodes dump rows with a literal scanner rather than the
SQL parser, so the corpus holds what that scanner must get right: text
that looks like dump syntax, every literal form the dump writes, and
rowid gaps, after which the restore renumbers rows and must rebuild the
indexes.
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import PerfDMFSession
from repro.db import minisql
from repro.db.minisql import wal as ms_wal
from repro.db.minisql.dump import (
    META_PREFIX, _render_value, _scan_row, load_database, restore_dump,
)
from repro.db.minisql.expr import evaluate
from repro.db.minisql.parser import parse
from repro.db.minisql.storage import Database
from repro.obs import log as obslog
from repro.obs.metrics import registry as metrics_registry
from repro.obs.trace import tracer
from repro.tau.apps import EVH1
from tests.db import test_wal

ROOT = Path(__file__).resolve().parents[2]

#: Text that reads like the dump's own row syntax.
DUMP_LOOKALIKES = [
    "x');\nINSERT INTO h (id, s, n) VALUES (99, 'evil', 1);",
    "INSERT INTO h (id, s, n) VALUES (1, 'dup', 2);",
    "', 'tail",
    "1, 2);",
    "NULL",
    "(1e999-1e999)",
    "''",
    "",
]

NON_FINITE = [math.inf, -math.inf, math.nan, -0.0, 5e-324]
BIG_INTS = [2**70, -(2**70)]


def _canon(value):
    """Compare floats by bit pattern: NaN equals NaN, -0.0 is not 0.0."""
    if isinstance(value, float):
        return ("real", value.hex())
    return value


def _is_unique_constraint(name: str) -> bool:
    # The implicit indexes of UNIQUE column and table constraints; the
    # test_unique_constraints_* tests check that those survive.
    return name.startswith(("__uq_", "__uqc_"))


def describe(database) -> dict:
    """Everything a restore must reproduce, in comparable form."""
    state = {}
    for key, table in sorted(database.tables.items()):
        state[key] = {
            "columns": [
                (c.name, c.affinity, c.not_null, c.primary_key,
                 c.autoincrement, _canon(c.default), c.references)
                for c in table.columns
            ],
            "rows": sorted(
                (rowid, [_canon(v) for v in row]) for rowid, row in table.scan()
            ),
            "next_rowid": table._next_rowid,
            "last_autoincrement": table.last_autoincrement,
            "columnar": table.is_columnar,
            "indexes": {
                name: (
                    type(index).__name__, index.unique, index.column_names,
                    sorted(
                        (repr([_canon(v) for v in key]), sorted(rowids))
                        for key, rowids in index.map.items()
                    ),
                )
                for name, index in sorted(table.indexes.items())
                if not _is_unique_constraint(name)
            },
        }
    return state


def _rows(conn, sql):
    return [[_canon(v) for v in row] for row in conn.execute(sql).fetchall()]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(), st.sampled_from(DUMP_LOOKALIKES),
    ),
    min_size=1, max_size=6,
))
def test_scanner_reads_what_the_parser_reads(values):
    sql = f"INSERT INTO t (c) VALUES ({', '.join(map(_render_value, values))});"
    (statement,) = parse(sql)
    expected = [evaluate(expr, None, ()) for expr in statement.rows[0]]
    row, end = _scan_row(sql, sql.index("VALUES (") + len("VALUES ("))
    assert [_canon(v) for v in row] == [_canon(v) for v in expected]
    assert end == len(sql)


@pytest.mark.parametrize("literal", ["\u0661\u0662", "1_000", "inf", "nan", "- 1", "1e", "0x10"])
def test_scanner_rejects_literals_the_dump_never_writes(literal):
    assert _scan_row(f"{literal});", 0) == ([], 0)


#: A hand-written script: rows the scanner takes, rows it leaves to the
#: parser (an expression, a partial column list, lower-case keywords),
#: and comments and quoted semicolons between and inside statements.
MIXED_SCRIPT = """-- written by hand
BEGIN;
CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT DEFAULT 'a;b', x REAL);
INSERT INTO t (id, s, x) VALUES (1, 'one', 1.5);
INSERT INTO t (id, s, x) VALUES (2, 'two', 1+1);
/* a block comment; with a semicolon */
INSERT INTO t (x) VALUES (3.5);
insert into t (id, s, x) values (4, 'four', NULL);
INSERT INTO t (id, s, x) VALUES (5, 'it''s;', -2.5e-3);
CREATE INDEX t_x ON t (x);
COMMIT;
"""


def test_restore_parses_what_the_scanner_rejects():
    expected = minisql.connect(":memory:")
    expected.executescript(MIXED_SCRIPT)
    database = Database()
    rows, statements = restore_dump(database, MIXED_SCRIPT, None)
    assert (rows, statements) == (5, 7)  # 2 rows scanned, 3 parsed
    assert describe(database) == describe(expected._database)
    assert minisql.Connection(database).execute(
        "PRAGMA integrity_check"
    ).fetchall() == [("ok",)]


@pytest.mark.parametrize(
    "script",
    [
        "BEGIN;'x",
        "'x",
        'BEGIN;"x',
        "CREATE TABLE t (a TEXT);\nINSERT INTO t (a) VALUES ('x);",
    ],
)
def test_restore_reports_an_unterminated_literal(script):
    # A quote that never closes must reach the parser, which reports
    # it, rather than stall the statement splitter.
    with pytest.raises(minisql.SQLSyntaxError, match="unterminated"):
        restore_dump(Database(), script, None)


# -- corpus ----------------------------------------------------------------------


def _create(conn, sql: str, columnar: bool = False) -> None:
    conn.execute(sql)
    conn.commit()
    if columnar:
        name = sql.split()[2]
        conn.execute(f"PRAGMA columnar({name} on)")


def _build_perfdmf(path: Path) -> None:
    session = PerfDMFSession(f"minisql://{path}")
    experiment = session.create_experiment(
        session.create_application("evh1"), "scaling"
    )
    session.save_trial(EVH1(problem_size=0.05, timesteps=1).run(4), experiment, "p4")


def _build_hostile(path: Path) -> None:
    conn = minisql.connect(str(path))
    texts = test_wal.TestHostileTextDurability.HOSTILE + DUMP_LOOKALIKES
    for table in ("h", "hc"):
        _create(
            conn, f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, s TEXT, n INTEGER)",
            columnar=table == "hc",
        )
        conn.executemany(
            f"INSERT INTO {table} (s, n) VALUES (?, ?)",
            [(text, i) for i, text in enumerate(texts)],
        )
    conn.commit()


def _build_gaps(path: Path) -> None:
    conn = minisql.connect(str(path))
    for table, using in (("g", ""), ("gc", " USING BTREE")):
        _create(
            conn, f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, k INTEGER, v REAL)",
            columnar=table == "gc",
        )
        conn.execute(f"CREATE INDEX idx_{table}_k ON {table} (k){using}")
        conn.executemany(
            f"INSERT INTO {table} (k, v) VALUES (?, ?)",
            [(i % 3, i / 4) for i in range(20)],
        )
        conn.execute(f"DELETE FROM {table} WHERE id IN (1, 2, 5, 9, 13)")
    conn.commit()


def _build_composite_key(path: Path) -> None:
    conn = minisql.connect(str(path))
    conn.execute(
        "CREATE TABLE cp (a INTEGER, b TEXT, c REAL, PRIMARY KEY (a, b))"
    )
    conn.executemany(
        "INSERT INTO cp VALUES (?, ?, ?)",
        [(i // 2, f"b{i % 2}", i * 1.5) for i in range(10)],
    )
    conn.commit()


def _build_defaults(path: Path) -> None:
    conn = minisql.connect(str(path))
    conn.execute(
        "CREATE TABLE d (id INTEGER PRIMARY KEY, a INTEGER DEFAULT -1, "
        "b REAL DEFAULT 2.5, c TEXT DEFAULT 'it''s', e BOOLEAN DEFAULT 1)"
    )
    conn.execute("INSERT INTO d (a) VALUES (7)")
    conn.execute("INSERT INTO d (b, c) VALUES (-0.5, 'set')")
    conn.execute("ALTER TABLE d ADD COLUMN f REAL DEFAULT -1e999")
    conn.execute("ALTER TABLE d ADD COLUMN g TEXT")
    conn.execute("INSERT INTO d (g) VALUES ('late')")
    conn.commit()


def _build_nulls(path: Path) -> None:
    conn = minisql.connect(str(path))
    for table in ("nl", "nlc"):
        _create(
            conn, f"CREATE TABLE {table} (i INTEGER, r REAL, t TEXT)",
            columnar=table == "nlc",
        )
        conn.executemany(
            f"INSERT INTO {table} VALUES (?, ?, ?)",
            [(None, 1.5, "a"), (2, None, None), (None, None, "c"), (4, 4.0, None)],
        )
    conn.commit()


def _build_exponents(path: Path) -> None:
    conn = minisql.connect(str(path))
    conn.execute("CREATE TABLE ex (x REAL, y INTEGER)")
    conn.executemany(
        "INSERT INTO ex VALUES (?, ?)",
        [(1e-05, 1), (1.5e300, 2), (1e16, 3), (-3e-07, 4), (0.1, 5),
         (123456789.0, 6), (2.5e-10, 7)],
    )
    conn.commit()


def _build_bools(path: Path) -> None:
    conn = minisql.connect(str(path))
    conn.execute("CREATE TABLE bo (id INTEGER PRIMARY KEY, flag BOOLEAN, n INTEGER)")
    conn.executemany(
        "INSERT INTO bo (flag, n) VALUES (?, ?)",
        [(True, 1), (False, 0), (None, 2), (True, 3)],
    )
    conn.commit()


def _build_non_finite(path: Path) -> None:
    conn = minisql.connect(str(path))
    for table in ("nf", "nfc"):
        _create(
            conn, f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, r REAL, i INTEGER)",
            columnar=table == "nfc",
        )
        conn.executemany(
            f"INSERT INTO {table} (r, i) VALUES (?, ?)",
            [(value, None) for value in NON_FINITE]
            + [(None, value) for value in BIG_INTS],
        )
    conn.commit()


CORPUS = {
    "perfdmf": _build_perfdmf,
    "hostile": _build_hostile,
    "gaps": _build_gaps,
    "composite_key": _build_composite_key,
    "defaults": _build_defaults,
    "nulls": _build_nulls,
    "exponents": _build_exponents,
    "bools": _build_bools,
    "non_finite": _build_non_finite,
}

#: Queries whose answers must not change across the reopen.
QUERIES = {
    "perfdmf": [
        "EXPLAIN SELECT * FROM interval_location_profile WHERE exclusive > 1.0",
        "SELECT count(*) FROM interval_location_profile WHERE exclusive > 1.0",
        "SELECT count(*) FROM atomic_location_profile",
    ],
    "hostile": ["SELECT id, s FROM h WHERE n = 3", "SELECT id, s FROM hc WHERE id = 12"],
    "gaps": [
        "SELECT id FROM g WHERE k = 1 ORDER BY id",
        "SELECT id FROM gc WHERE k = 1 ORDER BY id",
        "SELECT id FROM gc WHERE k > 1 ORDER BY id",
    ],
    "composite_key": ["SELECT c FROM cp WHERE a = 2 AND b = 'b1'"],
}

_CHILD = """
import pickle, sys, traceback
from pathlib import Path
from repro.db import minisql
from repro.db.minisql import wal as ms_wal
from tests.db.test_checkpoint_restore import QUERIES, _rows, describe

out = {}
for name, path in zip(sys.argv[2::2], sys.argv[3::2]):
    try:
        conn = minisql.connect(path)
        db = conn._database
        out[name] = {
            "state": describe(db),
            "integrity": conn.execute("PRAGMA integrity_check").fetchall(),
            "queries": [_rows(conn, sql) for sql in QUERIES.get(name, [])],
            "segments": len(ms_wal.list_segments(Path(path).resolve())),
        }
        db.wal.checkpoint(db)
        out[name]["redump"] = Path(path).read_bytes()
    except Exception:
        out[name] = {"error": traceback.format_exc()}
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""


@pytest.fixture(scope="module")
def reopened(tmp_path_factory):
    """Per corpus name: ``before`` (state, query answers and the
    checkpoint the close wrote), ``after`` (what the child saw) and the
    archive ``paths``."""
    work = tmp_path_factory.mktemp("restore")
    before = {}
    paths = {}
    for name, build in CORPUS.items():
        path = work / name / "archive.mdb"
        path.parent.mkdir()
        build(path)
        conn = minisql.connect(str(path))
        before[name] = {
            "state": describe(conn._database),
            "queries": [_rows(conn, sql) for sql in QUERIES.get(name, [])],
        }
        conn.close()
        minisql.reset_shared_databases()
        before[name]["checkpoint"] = path.read_bytes()
        paths[name] = path
    result = work / "after.pickle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    argv = [sys.executable, "-c", _CHILD, str(result)]
    for name, path in paths.items():
        argv += [name, str(path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(result, "rb") as fh:
        after = pickle.load(fh)
    return {"before": before, "after": after, "paths": paths}


@pytest.mark.parametrize("name", list(CORPUS))
def test_reopen_reproduces_the_closed_database(reopened, name):
    before, after = reopened["before"][name], reopened["after"][name]
    assert "error" not in after, after.get("error")
    assert after["integrity"] == [("ok",)]
    assert after["segments"] == 1
    for table, state in before["state"].items():
        assert after["state"][table] == state, table
    assert after["state"].keys() == before["state"].keys()
    assert after["queries"] == before["queries"]
    assert after["redump"] == before["checkpoint"]


def test_corpus_is_not_vacuous(reopened):
    """The cases the differential exists for are really in the corpus."""
    before = {name: entry["state"] for name, entry in reopened["before"].items()}
    perfdmf = before["perfdmf"]
    assert perfdmf["atomic_location_profile"]["rows"]
    assert perfdmf["interval_location_profile"]["columnar"]
    assert perfdmf["interval_location_profile"]["indexes"]["idx_ilp_exclusive"][0] == "SortedIndex"
    for table in ("g", "gc"):
        rowids = [rowid for rowid, _ in before["gaps"][table]["rows"]]
        assert rowids != list(range(1, len(rowids) + 1)), "no rowid gap"
    assert reopened["before"]["gaps"]["queries"][0] == [[8], [11], [14], [17], [20]]
    assert before["gaps"]["gc"]["columnar"] and not before["gaps"]["g"]["columnar"]
    values = {v for _, row in before["non_finite"]["nf"]["rows"] for v in row}
    assert {_canon(v) for v in NON_FINITE} | set(BIG_INTS) <= values
    texts = {row[1] for _, row in before["hostile"]["h"]["rows"]}
    assert set(DUMP_LOOKALIKES) <= texts


def test_btree_indexes_survive_reopen(reopened):
    (plan,) = reopened["after"]["perfdmf"]["queries"][0]
    assert "USING ORDERED INDEX idx_ilp_exclusive" in plan[1]
    methods = _meta(reopened["before"]["perfdmf"]["checkpoint"])["index_methods"]
    assert sorted(methods) == [
        "idx_ilp_event_metric", "idx_ilp_exclusive", "idx_ilp_node",
        "idx_ims_exclusive", "idx_ims_inclusive", "idx_its_exclusive",
        "idx_trial_experiment",
    ]
    assert set(methods.values()) == {"btree"}


def _meta(checkpoint: bytes) -> dict:
    last = checkpoint.decode().rstrip("\n").rsplit("\n", 1)[1]
    assert last.startswith(META_PREFIX)
    return json.loads(last[len(META_PREFIX):])


def test_trailer_without_index_methods_still_opens(reopened, tmp_path):
    """An archive written before the trailer carried index methods opens
    with the same rows and hash indexes."""
    checkpoint = reopened["before"]["perfdmf"]["checkpoint"].decode()
    body, last = checkpoint.rstrip("\n").rsplit("\n", 1)
    meta = json.loads(last[len(META_PREFIX):])
    del meta["index_methods"]
    archive = tmp_path / "old.mdb"
    with open(archive, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{body}\n{META_PREFIX}{json.dumps(meta, separators=(',', ':'))}\n")
    db = ms_wal.open_file_database(archive)
    try:
        state = describe(db)
        expected = reopened["before"]["perfdmf"]["state"]
        for table in expected:
            assert state[table]["rows"] == expected[table]["rows"]
        index = db.tables["interval_location_profile"].indexes["idx_ilp_exclusive"]
        assert index.method == "hash"
        assert minisql.Connection(db).execute(
            "PRAGMA integrity_check"
        ).fetchall() == [("ok",)]
    finally:
        db.wal.close()


def test_unique_constraints_survive_reopen(tmp_path):
    archive = tmp_path / "u.mdb"
    conn = minisql.connect(str(archive))
    conn.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT, UNIQUE (name))")
    conn.execute("INSERT INTO u (name) VALUES ('a')")
    conn.commit()
    conn.close()
    minisql.reset_shared_databases()
    conn = minisql.connect(str(archive))
    with pytest.raises(minisql.IntegrityError):
        conn.execute("INSERT INTO u (name) VALUES ('a')")


def test_unique_constraints_survive_wal_replay(tmp_path):
    archive = tmp_path / "u.mdb"
    conn = minisql.connect(str(archive))
    conn.execute(
        "CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT UNIQUE, "
        "a INTEGER, b INTEGER, UNIQUE (a, b))"
    )
    conn.execute("INSERT INTO u (name, a, b) VALUES ('x', 1, 2)")
    conn.commit()
    test_wal._simulate_crash(archive)  # the table lives only in the log
    conn = minisql.connect(str(archive))
    for sql in (
        "INSERT INTO u (name, a, b) VALUES ('x', 3, 4)",
        "INSERT INTO u (name, a, b) VALUES ('y', 1, 2)",
    ):
        with pytest.raises(minisql.IntegrityError):
            conn.execute(sql)
        conn.rollback()
    assert conn.execute("SELECT count(*) FROM u").fetchall() == [(1,)]


def _drop_unique_clauses(archive: Path) -> None:
    """Rewrite a closed archive as a dump that did not render UNIQUE
    constraints wrote it: the same text without those clauses."""
    with open(archive, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    stripped = re.sub(r", UNIQUE \([^)]*\)", "", text)
    assert stripped != text
    with open(archive, "w", encoding="utf-8", newline="") as fh:
        fh.write(stripped)


_PERFDMF_DUPLICATES = (
    "INSERT INTO application (name) VALUES ('evh1')",
    "INSERT INTO experiment (application, name) VALUES (1, 'scaling')",
    "INSERT INTO trial (experiment, name) VALUES (1, 'p4')",
)


def test_older_archive_gets_its_perfdmf_unique_constraints_back(tmp_path):
    archive = tmp_path / "old.mdb"
    _build_perfdmf(archive)
    minisql.reset_shared_databases()
    _drop_unique_clauses(archive)
    conn = minisql.connect(str(archive))
    assert not [n for n in conn._database.index_owner if n.startswith("__uq")]
    minisql.reset_shared_databases()

    session = PerfDMFSession(f"minisql://{archive}")
    for sql in _PERFDMF_DUPLICATES:
        with pytest.raises(minisql.IntegrityError):
            session.connection.execute(sql)
        session.connection.rollback()
    session.close()
    minisql.reset_shared_databases()
    text = archive.read_text(encoding="utf-8")
    for clause in ("UNIQUE (name)", "UNIQUE (application, name)",
                   "UNIQUE (experiment, name)"):
        assert clause in text


def test_older_archive_with_duplicate_names_still_opens(tmp_path):
    archive = tmp_path / "dup.mdb"
    _build_perfdmf(archive)
    minisql.reset_shared_databases()
    _drop_unique_clauses(archive)
    conn = minisql.connect(str(archive))
    conn.execute(_PERFDMF_DUPLICATES[0])  # the lost constraint let it in
    conn.commit()
    conn.close()
    minisql.reset_shared_databases()

    violations = metrics_registry.counter("schema.unique_violations")
    before = violations.value
    stream = io.StringIO()
    obslog.configure(stream=stream)
    try:
        session = PerfDMFSession(f"minisql://{archive}")
    finally:
        obslog.configure()
    assert violations.value == before + 1
    (record,) = [json.loads(raw) for raw in stream.getvalue().splitlines()]
    assert record["event"] == "unique_constraint_violated"
    assert record["table"] == "application"
    assert session.connection.query("SELECT count(*) FROM application") == [(2,)]
    for sql in _PERFDMF_DUPLICATES[1:]:
        with pytest.raises(minisql.IntegrityError):
            session.connection.execute(sql)
        session.connection.rollback()


def test_non_finite_values_load_into_sqlite(reopened):
    target = sqlite3.connect(":memory:")
    load_database(target, reopened["paths"]["non_finite"])
    reals = [r for (r,) in target.execute("SELECT r FROM nf ORDER BY id")][:5]
    assert reals[:2] == [math.inf, -math.inf]
    assert reals[2] is None  # sqlite stores NaN as NULL
    assert reals[3] == 0.0 and reals[4] == 5e-324
    ints = [i for (i,) in target.execute("SELECT i FROM nf ORDER BY id")][5:]
    assert ints == [float(v) for v in BIG_INTS]  # beyond 64 bits: REAL


# -- observability ---------------------------------------------------------------


def _open_logged(archive: Path) -> tuple[object, dict, dict]:
    """Open ``archive``; returns the database, the ``recover`` log fields
    and the ``minisql.recover`` span attributes."""
    stream = io.StringIO()
    obslog.configure(stream=stream, level="info")
    tracer.clear()
    tracer.enable()
    try:
        db = ms_wal.open_file_database(archive)
    finally:
        tracer.disable()
        obslog.configure()
    records = [json.loads(raw) for raw in stream.getvalue().splitlines()]
    (line,) = [record for record in records if record["event"] == "recover"]
    (span,) = [s for s in tracer.drain() if s["name"] == "minisql.recover"]
    return db, line, span["attributes"]


def test_reopen_parses_only_ddl_and_keeps_the_checkpoint(reopened, tmp_path):
    archive = tmp_path / "archive.mdb"
    checkpoint = reopened["before"]["perfdmf"]["checkpoint"]
    archive.write_bytes(checkpoint)
    db, line, span = _open_logged(archive)
    try:
        named_indexes = [n for n in db.index_owner if not n.startswith("__")]
        ddl = len(db.tables) + len(named_indexes) + 2  # + BEGIN/COMMIT
        rows = sum(len(table) for table in db.tables.values())
        for fields in (line, span):
            assert fields["sql_statements"] == ddl  # not one INSERT
            assert fields["rows_restored"] == rows > 0
            assert fields["checkpointed"] is False
        assert archive.read_bytes() == checkpoint
        assert len(ms_wal.list_segments(archive.resolve())) == 1
        assert db.wal.checkpoint_lsn == _meta(checkpoint)["last_lsn"]
    finally:
        db.wal.close()


def test_reopen_after_replay_rewrites_the_checkpoint(tmp_path):
    archive = tmp_path / "archive.mdb"
    db = ms_wal.open_file_database(archive)
    conn = minisql.Connection(db)
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
    conn.execute("INSERT INTO t (x) VALUES (1.5)")
    conn.commit()
    db.wal.close()  # a crash: the rows live only in the log
    db.wal = None
    db, line, span = _open_logged(archive)
    try:
        assert line["applied"] > 0 and line["checkpointed"] is True
        assert span["checkpointed"] is True
        assert ms_wal.read_records(archive.resolve()) == ([], True)
    finally:
        db.wal.close()


def test_replica_resync_serves_the_rebuilt_tables(tmp_path):
    # A resync rebuilds every table of the replica, and a bulk restore
    # can leave the rebuilt table at the version the old one had.  A
    # snapshot read pinned before the resync must not be served again.
    from repro.db.minisql.replica import FileWalSource, Replica

    archive = tmp_path / "primary.mdb"
    primary = minisql.connect(str(archive))
    try:
        primary.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        primary.executemany(
            "INSERT INTO t (v) VALUES (?)", [(i,) for i in range(50)]
        )
        primary.commit()
        replica = Replica(FileWalSource(archive), name="r1")
        replica.catch_up(timeout=15)
        reader = minisql.Connection(replica.database)
        count = "SELECT count(*) FROM t"
        assert reader.execute(count).fetchone() == (50,)
        primary.executemany(
            "INSERT INTO t (v) VALUES (?)", [(i,) for i in range(25)]
        )
        primary.commit()
        primary.execute("PRAGMA checkpoint")
        replica.poll_once()
        replica.catch_up(timeout=15)
        assert replica.resyncs == 1
        assert reader.execute(count).fetchone() == (75,)
    finally:
        primary.close()

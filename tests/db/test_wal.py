"""MiniSQL durability: WAL round-trips, checkpoints, torn-tail recovery.

Process-internal tests of the write-ahead log (the subprocess crash
matrix lives in test_crash_recovery.py).  "Crash" here means dropping a
file-backed database without its close-time checkpoint, so reopening
must reconstruct state from checkpoint + WAL alone.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.db import minisql
from repro.db.minisql import engine as ms_engine
from repro.db.minisql import wal as ms_wal


def _open(path):
    return minisql.connect(str(path))


def _simulate_crash(path):
    """Drop the in-process database for ``path`` WITHOUT checkpointing,
    exactly as a killed process would leave the files."""
    key = str(path.resolve())
    with ms_engine._SHARED_LOCK:
        db = ms_engine._FILE_DATABASES.pop(key, None)
    assert db is not None, f"{path} was not open"
    db.wal.close()
    db.wal = None


@pytest.fixture
def archive(tmp_path):
    return tmp_path / "archive.mdb"


class TestDurability:
    def test_clean_close_then_reopen(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        conn.executemany(
            "INSERT INTO t (x) VALUES (?)", [(float(i),) for i in range(20)]
        )
        conn.commit()
        conn.close()
        minisql.reset_shared_databases()

        conn = _open(archive)
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (20,)
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]

    def test_committed_state_survives_crash(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO t (name) VALUES (?)", [(f"n{i}",) for i in range(10)]
        )
        conn.commit()
        conn.execute("UPDATE t SET name = 'changed' WHERE id = 3")
        conn.execute("DELETE FROM t WHERE id = 4")
        conn.commit()
        _simulate_crash(archive)

        conn = _open(archive)
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (9,)
        assert conn.execute(
            "SELECT name FROM t WHERE id = 3"
        ).fetchone() == ("changed",)
        assert conn.execute("SELECT * FROM t WHERE id = 4").fetchall() == []
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]

    def test_uncommitted_transaction_is_discarded(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        conn.execute("INSERT INTO t (x) VALUES (1.0)")
        conn.commit()
        conn.execute("INSERT INTO t (x) VALUES (2.0)")  # never committed
        _simulate_crash(archive)

        conn = _open(archive)
        assert conn.execute("SELECT count(*) FROM t").fetchone() == (1,)

    def test_rolled_back_transaction_is_discarded(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        conn.execute("INSERT INTO t (x) VALUES (1.0)")
        conn.commit()
        conn.execute("INSERT INTO t (x) VALUES (2.0)")
        conn.rollback()
        conn.execute("INSERT INTO t (x) VALUES (3.0)")
        conn.commit()
        _simulate_crash(archive)

        conn = _open(archive)
        rows = conn.execute("SELECT x FROM t ORDER BY x").fetchall()
        assert rows == [(1.0,), (3.0,)]

    def test_ddl_and_indexes_survive_crash(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL, s TEXT)")
        conn.execute("CREATE INDEX idx_x ON t (x) USING BTREE")
        conn.execute("CREATE UNIQUE INDEX idx_s ON t (s)")
        conn.executemany(
            "INSERT INTO t (x, s) VALUES (?, ?)",
            [(float(i), f"s{i}") for i in range(50)],
        )
        conn.commit()
        conn.execute("ALTER TABLE t ADD COLUMN extra INTEGER DEFAULT 7")
        conn.execute("DROP INDEX idx_s")
        _simulate_crash(archive)

        conn = _open(archive)
        indexes = {r[0] for r in conn.execute("PRAGMA index_list(t)").fetchall()}
        assert "idx_x" in indexes and "idx_s" not in indexes
        assert conn.execute(
            "SELECT extra FROM t WHERE id = 1"
        ).fetchone() == (7,)
        # The ordered index must actually serve range queries post-replay.
        assert conn.execute(
            "SELECT count(*) FROM t WHERE x >= 25.0"
        ).fetchone() == (25,)
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]

    def test_rowids_survive_checkpoint_with_gaps(self, archive):
        """Dump restore renumbers rows; the checkpoint trailer must map
        the original (gappy) rowids back so later WAL records and
        autoincrement keep working."""
        conn = _open(archive)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        conn.executemany(
            "INSERT INTO t (x) VALUES (?)", [(float(i),) for i in range(10)]
        )
        conn.execute("DELETE FROM t WHERE id IN (2, 5, 9)")  # leave gaps
        conn.commit()
        conn.execute("PRAGMA checkpoint")
        # Post-checkpoint mutations reference the original rowids.
        conn.execute("UPDATE t SET x = -1.0 WHERE id = 10")
        conn.execute("INSERT INTO t (x) VALUES (123.0)")
        conn.commit()
        _simulate_crash(archive)

        conn = _open(archive)
        assert conn.execute("SELECT x FROM t WHERE id = 10").fetchone() == (-1.0,)
        # Autoincrement continues past the pre-crash high-water mark.
        assert conn.execute("SELECT max(id) FROM t").fetchone() == (11,)
        conn.execute("INSERT INTO t (x) VALUES (124.0)")
        conn.commit()
        assert conn.execute("SELECT max(id) FROM t").fetchone() == (12,)

    def test_segment_rotation_replays_in_order(self, archive):
        db = ms_wal.open_file_database(archive, segment_bytes=512)
        conn = minisql.Connection(db)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        conn.executemany(
            "INSERT INTO t (s) VALUES (?)", [("x" * 40,) for _ in range(50)]
        )
        conn.commit()
        segments = ms_wal.list_segments(archive.resolve())
        assert len(segments) > 1, "workload did not rotate segments"
        db.wal.close()
        db.wal = None

        db2 = ms_wal.open_file_database(archive)
        assert len(db2.tables["t"].rows) == 50
        db2.wal.close()

    def test_connections_share_one_file_database(self, archive):
        a = _open(archive)
        a.execute("CREATE TABLE t (x INTEGER)")
        a.execute("INSERT INTO t VALUES (1)")
        a.commit()
        b = _open(archive)
        assert b.execute("SELECT count(*) FROM t").fetchone() == (1,)

    def test_wal_replay_after_crash_leaves_clean_slate(self, archive):
        """Every successful open ends with a fresh checkpoint and an
        empty WAL — crash loops never accumulate log."""
        conn = _open(archive)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        _simulate_crash(archive)
        db = ms_wal.open_file_database(archive)
        records, clean = ms_wal.read_records(archive.resolve())
        assert records == [] and clean
        assert archive.exists()
        db.wal.close()


class TestHostileTextDurability:
    """TEXT values with newlines, CRs, or lines that mimic dump syntax
    must survive the checkpoint (SQL dump) → crash → replay cycle."""

    HOSTILE = [
        "line1\nline2",
        "cr\rmiddle",
        "crlf\r\nend",
        "blank\n\n\nlines",
        "looks like\n-- a comment",
        "BEGIN;",
        "framed\nBEGIN;\nCOMMIT;\ntail",
        "text\n-- minisql-meta: {\"fake\": true}",
        "quote'and\nnewline",
    ]

    def _populate(self, conn):
        conn.execute("CREATE TABLE h (id INTEGER PRIMARY KEY, s TEXT)")
        conn.executemany(
            "INSERT INTO h (s) VALUES (?)", [(s,) for s in self.HOSTILE]
        )
        conn.commit()

    def _fetch(self, conn):
        return [
            r[0] for r in conn.execute("SELECT s FROM h ORDER BY id").fetchall()
        ]

    def test_survive_checkpoint_and_crash(self, archive):
        conn = _open(archive)
        self._populate(conn)
        conn.execute("PRAGMA checkpoint")  # values now live in the dump
        _simulate_crash(archive)

        conn = _open(archive)
        assert self._fetch(conn) == self.HOSTILE
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]

    def test_survive_clean_close_twice(self, archive):
        """Two full close/reopen cycles: restore must not mangle values
        it then re-dumps (no cumulative corruption)."""
        conn = _open(archive)
        self._populate(conn)
        conn.close()
        minisql.reset_shared_databases()

        conn = _open(archive)
        assert self._fetch(conn) == self.HOSTILE
        conn.close()
        minisql.reset_shared_databases()

        conn = _open(archive)
        assert self._fetch(conn) == self.HOSTILE

    def test_survive_wal_replay_without_checkpoint(self, archive):
        conn = _open(archive)
        self._populate(conn)
        _simulate_crash(archive)  # values only in the WAL, not the dump

        conn = _open(archive)
        assert self._fetch(conn) == self.HOSTILE


class TestConcurrentAutocommit:
    def test_parallel_writers_and_checkpoints(self, archive):
        """Autocommit mutations from many threads race WAL appends,
        segment rotation and explicit checkpoints; the log must stay
        coherent and recovery must see every committed row."""
        import threading

        db = ms_wal.open_file_database(archive, segment_bytes=4096)
        setup = minisql.Connection(db)
        setup.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, w INTEGER)")
        n_threads, per_thread = 6, 30
        errors = []

        def writer(i: int) -> None:
            try:
                conn = minisql.Connection(db)
                conn.isolation_level = None  # true autocommit: no BEGIN
                for _ in range(per_thread):
                    conn.execute("INSERT INTO t (w) VALUES (?)", (i,))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def checkpointer() -> None:
            try:
                conn = minisql.Connection(db)
                for _ in range(5):
                    conn.execute("PRAGMA checkpoint")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_threads)
        ] + [threading.Thread(target=checkpointer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(db.tables["t"].rows) == n_threads * per_thread

        db.wal.close()
        db.wal = None
        recovered = ms_wal.open_file_database(archive)
        try:
            assert len(recovered.tables["t"].rows) == n_threads * per_thread
            problems = minisql.Connection(recovered).execute(
                "PRAGMA integrity_check"
            ).fetchall()
            assert problems == [("ok",)]
        finally:
            recovered.wal.close()


class TestPragmas:
    def test_synchronous_get_set(self, archive):
        conn = _open(archive)
        assert conn.execute("PRAGMA synchronous").fetchone() == ("normal",)
        conn.execute("PRAGMA synchronous(full)")
        assert conn.execute("PRAGMA synchronous").fetchone() == ("full",)
        conn.execute("PRAGMA synchronous = off")
        assert conn.execute("PRAGMA synchronous").fetchone() == ("off",)
        with pytest.raises(minisql.ProgrammingError):
            conn.execute("PRAGMA synchronous(bogus)")

    def test_synchronous_full_fsyncs_at_commit(self, archive):
        conn = _open(archive)
        conn.execute("PRAGMA synchronous(full)")
        conn.execute("CREATE TABLE t (x INTEGER)")
        before = conn.stats()["wal_fsyncs"]
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        assert conn.stats()["wal_fsyncs"] > before

    def test_checkpoint_pragma_truncates_wal(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        status = dict(conn.execute("PRAGMA wal_status").fetchall())
        assert status["bytes_since_checkpoint"] > 0
        assert conn.execute("PRAGMA checkpoint").fetchone() == (1,)
        status = dict(conn.execute("PRAGMA wal_status").fetchall())
        assert status["bytes_since_checkpoint"] == 0
        assert status["checkpoints"] >= 1

    def test_checkpoint_refused_inside_transaction(self, archive):
        conn = _open(archive)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(minisql.OperationalError):
            conn.execute("PRAGMA checkpoint")
        conn.rollback()

    def test_autocheckpoint_threshold_triggers_at_commit(self, archive):
        conn = _open(archive)
        conn.execute("PRAGMA wal_autocheckpoint(1)")  # every commit
        conn.execute("CREATE TABLE t (x INTEGER)")
        before = dict(conn.execute("PRAGMA wal_status").fetchall())["checkpoints"]
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        after = dict(conn.execute("PRAGMA wal_status").fetchall())["checkpoints"]
        assert after > before
        conn.execute("PRAGMA wal_autocheckpoint(off)")
        assert conn.execute(
            "PRAGMA wal_autocheckpoint"
        ).fetchone() == (None,)

    def test_wal_pragmas_on_memory_database(self):
        conn = minisql.connect(":memory:")
        assert conn.execute("PRAGMA wal_status").fetchall() == [("enabled", 0)]
        assert conn.execute("PRAGMA checkpoint").fetchone() == (0,)
        conn.execute("PRAGMA synchronous(full)")  # accepted, no-op

    def test_integrity_check_detects_corruption(self):
        conn = minisql.connect(":memory:")
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        conn.execute("INSERT INTO t (x) VALUES (1.5)")
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        table = conn._database.tables["t"]
        next(iter(table.indexes.values())).map[(999,)] = {999}  # sabotage
        problems = conn.execute("PRAGMA integrity_check").fetchall()
        assert problems != [("ok",)]


class TestTornTail:
    def test_recovery_at_every_truncation_offset(self, tmp_path):
        """Chop the WAL at every byte offset; recovery must always land
        on a committed prefix (never crash, never partial transactions)."""
        work = tmp_path / "work"
        work.mkdir()
        archive = work / "archive.mdb"
        db = ms_wal.open_file_database(archive)
        conn = minisql.Connection(db)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        for batch in range(2):
            conn.execute("BEGIN")
            conn.execute("INSERT INTO t (x) VALUES (?)", (batch + 0.5,))
            conn.execute("INSERT INTO t (x) VALUES (?)", (batch + 0.75,))
            conn.commit()
        # A trailing uncommitted transaction: must never be recovered.
        conn.execute("INSERT INTO t (x) VALUES (99.0)")
        segments = ms_wal.list_segments(archive.resolve())
        assert len(segments) == 1
        db.wal.close()
        db.wal = None
        wal_bytes = segments[0].read_bytes()
        checkpoint_bytes = archive.read_bytes()

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        target = scratch / "archive.mdb"
        seen_counts = set()
        for offset in range(len(wal_bytes) + 1):
            shutil.rmtree(scratch)
            scratch.mkdir()
            target.write_bytes(checkpoint_bytes)
            (scratch / segments[0].name).write_bytes(wal_bytes[:offset])
            recovered = ms_wal.open_file_database(target)
            try:
                table = recovered.tables.get("t")
                if table is None:
                    count = -1  # DDL record itself torn away
                else:
                    count = len(table.rows)
                    problems = minisql.Connection(recovered).execute(
                        "PRAGMA integrity_check"
                    ).fetchall()
                    assert problems == [("ok",)], (offset, problems)
                # Committed prefixes only: no table yet, an empty table,
                # one committed batch, or both.  Never the uncommitted row.
                assert count in (-1, 0, 2, 4), (offset, count)
                seen_counts.add(count)
            finally:
                recovered.wal.close()
        # The sweep must actually exercise every prefix state.
        assert seen_counts == {-1, 0, 2, 4}

    def test_corrupt_middle_segment_stops_replay(self, tmp_path):
        archive = tmp_path / "archive.mdb"
        db = ms_wal.open_file_database(archive, segment_bytes=256)
        conn = minisql.Connection(db)
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        conn.executemany(
            "INSERT INTO t (s) VALUES (?)", [("y" * 40,) for _ in range(30)]
        )
        conn.commit()
        segments = ms_wal.list_segments(archive.resolve())
        assert len(segments) >= 2
        db.wal.close()
        db.wal = None
        # Flip a byte in the FIRST segment: everything after it is
        # untrustworthy, so replay must stop there (prefix consistency),
        # even though later segments decode fine.
        first = bytearray(segments[0].read_bytes())
        first[len(first) // 2] ^= 0xFF
        segments[0].write_bytes(bytes(first))
        records, clean = ms_wal.read_records(archive.resolve())
        assert not clean
        recovered = ms_wal.open_file_database(archive)
        table = recovered.tables.get("t")
        count = 0 if table is None else len(table.rows)
        assert count < 30
        recovered.wal.close()


class TestShardResidentArchives:
    """Releases that had ``PRAGMA shards`` could keep a table's rows only
    in ``<archive>.shards/shard-K.mdb``; this release cannot read them,
    so it must refuse such an archive rather than show the table empty."""

    def _archive_with_meta(self, archive, resident, pending):
        conn = _open(archive)
        conn.execute("CREATE TABLE ilp (x REAL)")
        conn.execute("INSERT INTO ilp (x) VALUES (1.5)")
        conn.commit()
        conn.close()
        ms_engine.reset_shared_databases()
        directory = archive.parent / (archive.name + ".shards")
        directory.mkdir()
        (directory / "meta.json").write_text(json.dumps({
            "version": 1, "nshards": 2, "parallel": "auto",
            "resident": resident, "pending": pending,
        }))
        return archive.read_bytes()

    @pytest.mark.parametrize("resident, pending", [
        ({"ilp": [500, 500]}, None),
        ({}, {"op": "ingest", "table": "ilp", "counts": [0, 0]}),
    ], ids=["resident", "pending"])
    def test_rows_in_shard_files_refuse_the_open(self, archive, resident, pending):
        before = self._archive_with_meta(archive, resident, pending)
        with pytest.raises(
            minisql.OperationalError, match=r"rows of ilp .*PRAGMA shards\(off\)"
        ):
            _open(archive)
        assert archive.read_bytes() == before
        assert str(archive.resolve()) not in ms_engine._FILE_DATABASES

    def test_meta_without_resident_rows_opens(self, archive):
        self._archive_with_meta(archive, {}, None)
        conn = _open(archive)
        assert conn.execute("SELECT x FROM ilp").fetchall() == [(1.5,)]

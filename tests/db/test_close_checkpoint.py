"""A close checkpoints a file archive only when something changed since
the last checkpoint.

Every case opens the archive in a fresh interpreter, as a cold
``perfdmf`` command does, runs its statements, commits and then ends
either with ``Connection.close`` or with ``reset_shared_databases``.
The test then looks at the files that interpreter left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.db import minisql
from repro.db.minisql import wal as ms_wal

SRC = Path(__file__).resolve().parents[2] / "src"

_CHILD = """
import json, sys
from repro.db import minisql
archive, finish, statements = sys.argv[1], sys.argv[2], sys.argv[3:]
conn = minisql.connect(archive)
wal = conn._database.wal
rows = [conn.execute(sql).fetchall() for sql in statements]
conn.commit()
if finish == "close":
    conn.close()
else:
    minisql.reset_shared_databases()
print(json.dumps({"rows": rows, "checkpoints": wal.checkpoints}))
"""

FINISHES = ["close", "reset"]


def _run(archive: Path, finish: str, *statements: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(archive), finish, *statements],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _archive_state(archive: Path) -> tuple:
    info = archive.stat()
    return info.st_ino, info.st_mtime_ns, archive.read_bytes()


def _segments(archive: Path) -> list[Path]:
    return ms_wal.list_segments(archive.resolve())


@pytest.fixture
def archive(tmp_path) -> Path:
    """A checkpointed archive with an empty log: table ``t``, three rows."""
    path = tmp_path / "archive.mdb"
    conn = minisql.connect(str(path))
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
    conn.executemany("INSERT INTO t (x) VALUES (?)", [(0.5,), (1.5,), (2.5,)])
    conn.commit()
    conn.close()
    minisql.reset_shared_databases()
    assert [s.stat().st_size for s in _segments(path)] == [0]
    return path


@pytest.mark.parametrize("finish", FINISHES)
def test_read_only_close_leaves_the_archive_alone(archive, finish):
    before = _archive_state(archive)
    out = _run(
        archive, finish,
        "SELECT count(*) FROM t", "SELECT x FROM t WHERE id = 2",
        "PRAGMA columnar(t status)",
    )
    assert out["rows"] == [[[3]], [[1.5]], [["t", 0]]]
    assert out["checkpoints"] == 0
    assert _archive_state(archive) == before
    assert len(_segments(archive)) == 1


@pytest.mark.parametrize("finish", FINISHES)
def test_committed_write_checkpoints_at_close(archive, finish):
    before = _archive_state(archive)
    out = _run(archive, finish, "INSERT INTO t (x) VALUES (9.5)")
    assert out["checkpoints"] == 1
    assert _archive_state(archive) != before
    assert [s.stat().st_size for s in _segments(archive)] == [0]
    assert _run(archive, "close", "SELECT max(x) FROM t")["rows"] == [[[9.5]]]


@pytest.mark.parametrize("finish", FINISHES)
def test_columnar_switch_during_bulk_load_is_checkpointed(archive, finish):
    """The switch logs no WAL record and the bulk load skips its own
    checkpoint, so only the close can write it to the trailer."""
    out = _run(
        archive, finish,
        "PRAGMA bulk_load(on)", "PRAGMA columnar(t on)", "PRAGMA bulk_load(off)",
    )
    assert out["checkpoints"] == 1
    reopened = _run(archive, "close", "PRAGMA columnar(t status)", "SELECT sum(x) FROM t")
    assert reopened["rows"] == [[["t", 1]], [[4.5]]]

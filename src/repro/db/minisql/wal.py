"""Write-ahead logging, checkpoints and crash recovery for MiniSQL.

PerfDMF parks profile data in a database precisely so it outlives the
tools that produced it (paper §3.1) — which an in-memory engine cannot
promise.  This module gives file-backed MiniSQL archives
(``minisql:///path/archive.mdb``) sqlite-style durability:

* an **append-only write-ahead log** of logical records — one per
  mutation (insert/delete/update, batched bulk appends, DDL as SQL
  text) plus transaction boundaries (begin/commit/rollback).  Each
  record is length-prefixed and CRC32-checksummed, so a torn tail left
  by a crash is detected, not misread.  The log rotates into numbered
  segment files; replay walks them in order;
* **atomic checkpoints** that reuse the SQL dump format
  (:mod:`~repro.db.minisql.dump`): write to a temp file, fsync,
  ``os.replace`` over the archive, then truncate the WAL.  The dump
  carries a machine-readable trailer (original rowids, high-water
  marks, the WAL position it contains) that sqlite skips as a comment;
* **recovery on open**: restore the checkpoint, replay committed WAL
  records past the checkpoint LSN, discard uncommitted transactions,
  stop at the first bad checksum.  An open that found any log records
  then writes a fresh checkpoint, and an open with an empty log keeps
  its checkpoint; either way every open starts from an empty log.

Durability knobs mirror sqlite's ``PRAGMA synchronous``:

======== ==========================================================
off       no fsync anywhere; flush-to-OS at commit (survives
          ``kill -9``, not power loss)
normal    fsync at checkpoints and segment rotation (default)
full      additionally fsync every commit barrier
======== ==========================================================

Record payloads are pickled (binary floats round-trip exactly and the
encoder is an order of magnitude faster than JSON on PerfDMF's
million-value bulk batches); the framing is written through
:mod:`repro.testing.faults` so crash-matrix tests can kill the process
at any named protocol step or tear a record mid-write.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _registry
from repro.obs.trace import tracer as _tracer
from repro.testing import faults

from .dump import (
    checkpoint_meta, dump_database_sql, parse_meta, render_meta, restore_dump,
)
from .errors import OperationalError

_log = get_logger("repro.db.minisql.wal")

#: Record framing: little-endian payload length + CRC32 of the payload.
_HEADER = struct.Struct("<II")

SYNC_POLICIES = ("off", "normal", "full")

#: Active segment size that triggers rotation into the next segment.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024

#: WAL bytes since the last checkpoint that trigger an automatic
#: checkpoint at the next commit boundary.
DEFAULT_AUTOCHECKPOINT_BYTES = 256 * 1024 * 1024


def _encode_record(record: tuple) -> bytes:
    payload = pickle.dumps(record, protocol=4)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_name(path: Path, seq: int) -> Path:
    return path.parent / f"{path.name}.wal.{seq:06d}"


def list_segments(path: Path) -> list[Path]:
    """Existing WAL segments for archive ``path``, in replay order."""
    prefix = f"{path.name}.wal."
    found = []
    for entry in path.parent.glob(prefix + "*"):
        suffix = entry.name[len(prefix):]
        if suffix.isdigit():
            found.append((int(suffix), entry))
    return [entry for _seq, entry in sorted(found)]


def decode_buffer(data: bytes) -> tuple[list[tuple], bool]:
    """Decode CRC-framed records from a byte buffer; returns
    (records, clean).

    ``clean`` is False when the buffer ends in a torn or corrupt
    record — every byte before the tear still decodes, so the committed
    prefix is preserved.  Shared by segment reads and by replicas
    decoding shipped WAL bytes (the same framing travels the wire, so
    corruption anywhere between primary disk and replica memory is
    caught here).
    """
    records: list[tuple] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return records, False  # torn tail: length promises more bytes
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, False  # bit rot or torn rewrite
        try:
            record = pickle.loads(payload)
        except Exception:
            return records, False
        if not isinstance(record, tuple) or len(record) < 3:
            return records, False
        records.append(record)
        offset = end
    return records, offset == total


def _read_segment(segment: Path) -> tuple[list[tuple], bool]:
    """Decode one segment; returns (records, clean)."""
    return decode_buffer(segment.read_bytes())


def read_records(path: Path) -> tuple[list[tuple], bool]:
    """All decodable WAL records for ``path`` across segments, in order.

    Stops at the first bad record; later segments after a tear are
    ignored (they postdate the corruption, so replaying them would break
    prefix consistency).
    """
    records: list[tuple] = []
    for segment in list_segments(path):
        segment_records, clean = _read_segment(segment)
        records.extend(segment_records)
        if not clean:
            return records, False
    return records, True


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """The append-only log for one file-backed archive.

    Records are tuples ``(lsn, txn, op, *args)``; ``txn`` 0 marks
    auto-committed operations (always replayed), any other id is
    replayed only if its ``commit`` record made it to disk.  Ops:

    ========= ======================================================
    begin     transaction opened
    commit    transaction durable — the commit barrier fsyncs here
              under ``synchronous=full``
    rollback  transaction abandoned (recovery skips it either way)
    ins       (table, rowid, row) single stored row
    bmany     (table, start_rowid, rows) contiguous bulk append
    del       (table, rowid)
    upd       (table, rowid, [(position, new_value), ...])
    ddl       (sql,) schema change replayed through the executor
    ========= ======================================================

    All mutating methods hold an internal re-entrant mutex: connections
    to the same archive share one WAL, and autocommit writers run
    without the database transaction lock, so append/rotation/LSN
    bookkeeping — and especially checkpoint truncation racing a
    concurrent append — must serialise here.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        synchronous: str = "normal",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        autocheckpoint_bytes: Optional[int] = DEFAULT_AUTOCHECKPOINT_BYTES,
    ):
        if synchronous not in SYNC_POLICIES:
            raise ValueError(f"synchronous must be one of {SYNC_POLICIES}")
        self.path = Path(path)
        self.synchronous = synchronous
        self.segment_bytes = segment_bytes
        self.autocheckpoint_bytes = autocheckpoint_bytes
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.checkpoints = 0
        self.bytes_since_checkpoint = 0
        self.last_lsn = 0
        #: LSN already folded into the on-disk checkpoint: records at or
        #: below it no longer exist in the segments.  Replication uses
        #: this as the resync watermark — a replica whose applied LSN is
        #: behind it can no longer tail incrementally.
        self.checkpoint_lsn = 0
        #: A change only the checkpoint trailer records (a table's
        #: storage mode switched during a bulk load) awaits a checkpoint.
        self._trailer_changed = False
        self._lock = threading.RLock()
        existing = list_segments(self.path)
        if existing:
            last = existing[-1].name.rpartition(".")[2]
            self._seq = int(last) + 1
        else:
            self._seq = 1
        self._fh: Optional[io.BufferedWriter] = None
        self._segment_size = 0
        self._open_segment()

    # -- segment lifecycle -------------------------------------------------

    def _open_segment(self) -> None:
        segment = _segment_name(self.path, self._seq)
        self._fh = open(segment, "ab")
        self._segment_size = self._fh.tell()

    def _rotate(self) -> None:
        faults.crash_point("wal.rotate.before")
        assert self._fh is not None
        self._fh.flush()
        if self.synchronous != "off":
            self._fsync()
        self._fh.close()
        self._seq += 1
        self._open_segment()
        faults.crash_point("wal.rotate.after")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    self._fh.close()
                except (OSError, ValueError):
                    pass
                self._fh = None

    def _fsync(self) -> None:
        assert self._fh is not None
        faults.fsync(self._fh, "wal.fsync")
        self.fsyncs += 1
        _registry.counter("minisql.wal.fsyncs").inc()

    # -- appending ---------------------------------------------------------

    def append(self, op: str, txn: int, *args: Any) -> int:
        """Append one logical record; returns its LSN.

        The write lands in the Python/OS buffers only — durability is
        the commit barrier's job.  Torn-write faults armed on
        ``wal.append`` tear exactly here.
        """
        with self._lock:
            assert self._fh is not None, "WAL is closed"
            self.last_lsn += 1
            encoded = _encode_record((self.last_lsn, txn, op) + args)
            faults.crash_point("wal.append.before")
            faults.write(self._fh, encoded, "wal.append")
            faults.crash_point("wal.append.after")
            self.records_written += 1
            self.bytes_written += len(encoded)
            self.bytes_since_checkpoint += len(encoded)
            self._segment_size += len(encoded)
            _registry.counter("minisql.wal.records").inc()
            _registry.counter("minisql.wal.bytes").inc(len(encoded))
            if self._segment_size >= self.segment_bytes:
                self._rotate()
            return self.last_lsn

    def barrier(self) -> None:
        """Make everything appended so far crash-durable per policy:
        always flushed to the OS, fsynced under ``synchronous=full``."""
        with self._lock:
            assert self._fh is not None
            self._fh.flush()
            if self.synchronous == "full":
                self._fsync()

    # -- transaction records -----------------------------------------------

    def log_begin(self, txn: int) -> None:
        self.append("begin", txn)

    def log_commit(self, txn: int) -> None:
        with self._lock:
            faults.crash_point("wal.commit.before_record")
            self.append("commit", txn)
            faults.crash_point("wal.commit.after_record")
            self.barrier()
            faults.crash_point("wal.commit.after_barrier")
        _registry.counter("minisql.wal.commits").inc()

    def log_rollback(self, txn: int) -> None:
        with self._lock:
            self.append("rollback", txn)
            self.barrier()

    def should_checkpoint(self) -> bool:
        return (
            self.autocheckpoint_bytes is not None
            and self.bytes_since_checkpoint >= self.autocheckpoint_bytes
        )

    def note_trailer_change(self) -> None:
        """Record a change that logs no WAL record and that only the
        next checkpoint's trailer captures."""
        with self._lock:
            self._trailer_changed = True

    def changed_since_checkpoint(self) -> bool:
        """Whether the archive file lags the database: a record past
        the checkpoint exists, or a trailer-only change is pending.
        When False, a checkpoint would rewrite the file unchanged."""
        with self._lock:
            return self.last_lsn > self.checkpoint_lsn or self._trailer_changed

    # -- checkpoint ---------------------------------------------------------

    def checkpoint(self, database) -> None:
        """Atomically persist ``database`` and truncate the log.

        Protocol: dump to ``<archive>.tmp`` (with the recovery trailer),
        fsync, rename over the archive, fsync the directory, delete the
        now-redundant segments.  A crash at any step recovers: before
        the rename the old checkpoint + full WAL still reconstruct the
        state; after it, the trailer's LSN makes replay skip everything
        the new checkpoint already contains.
        """
        if database.in_transaction:
            raise OperationalError("cannot checkpoint inside a transaction")
        with self._lock, _tracer.span(
            "minisql.checkpoint", path=str(self.path)
        ):
            faults.crash_point("checkpoint.before_dump")
            tmp = self.path.parent / (self.path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write("-- MiniSQL dump\n")
                for statement in dump_database_sql(database):
                    fh.write(statement + "\n")
                fh.write(render_meta(checkpoint_meta(database, self.last_lsn)) + "\n")
                fh.flush()
                if self.synchronous != "off":
                    faults.fsync(fh, "checkpoint.fsync")
            faults.crash_point("checkpoint.after_dump")
            os.replace(tmp, self.path)
            if self.synchronous != "off":
                _fsync_dir(self.path.parent)
            faults.crash_point("checkpoint.after_rename")
            self._truncate()
            faults.crash_point("checkpoint.after_truncate")
            self.checkpoint_lsn = self.last_lsn
            self._trailer_changed = False
        self.checkpoints += 1
        self.bytes_since_checkpoint = 0
        _registry.counter("minisql.wal.checkpoints").inc()

    def _truncate(self) -> None:
        """Drop every segment and start a fresh one."""
        self.close()
        for segment in list_segments(self.path):
            try:
                segment.unlink()
            except OSError:
                pass
        self._seq += 1
        self._open_segment()

    # -- introspection ------------------------------------------------------

    def status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "path": str(self.path),
                "synchronous": self.synchronous,
                "segment": self._seq,
                "segment_bytes": self.segment_bytes,
                "autocheckpoint_bytes": self.autocheckpoint_bytes,
                "records": self.records_written,
                "bytes": self.bytes_written,
                "bytes_since_checkpoint": self.bytes_since_checkpoint,
                "fsyncs": self.fsyncs,
                "checkpoints": self.checkpoints,
                "last_lsn": self.last_lsn,
                "checkpoint_lsn": self.checkpoint_lsn,
            }


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def open_file_database(
    path: str | os.PathLike,
    synchronous: str = "normal",
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    autocheckpoint_bytes: Optional[int] = DEFAULT_AUTOCHECKPOINT_BYTES,
):
    """Open (and recover) the file-backed database at ``path``.

    Returns a :class:`~repro.db.minisql.storage.Database` with an
    attached :class:`WriteAheadLog` whose log is empty.  Recovery
    restores the checkpoint, then replays committed WAL records past
    it.  An open that finds an empty, clean log next to a checkpoint
    with a trailer keeps that checkpoint; any other open writes a fresh
    one, so the archive file reflects everything recovered.
    """
    from .storage import Database

    archive = Path(path).resolve()
    archive.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    database = Database()
    checkpoint_lsn = 0
    meta = None
    restored = False
    rows_restored = sql_statements = 0
    with _tracer.span("minisql.recover", path=str(archive)) as span:
        if archive.exists():
            # newline="" matches the checkpoint writer: no universal-
            # newline translation, so \r inside TEXT values survives.
            with open(archive, "r", encoding="utf-8", newline="") as fh:
                script = fh.read()
            meta = parse_meta(script)
            rows_restored, sql_statements = restore_dump(database, script, meta)
            restored = True
            if meta is not None:
                checkpoint_lsn = int(meta.get("last_lsn", 0))
        records, clean = read_records(archive)
        applied, discarded = _apply_records(database, records, checkpoint_lsn)
        if applied:
            _rebuild_after_recovery(database)
        max_lsn = max(
            [checkpoint_lsn] + [record[0] for record in records], default=0
        )
        # An empty, clean log over a checkpoint with a trailer: the file
        # already holds exactly the recovered state.
        checkpointed = meta is None or bool(records) or not clean
        span.set(
            records=len(records), applied=applied,
            discarded_txns=len(discarded), torn=not clean,
            rows_restored=rows_restored, sql_statements=sql_statements,
            checkpointed=checkpointed,
        )
    wal = WriteAheadLog(
        archive,
        synchronous=synchronous,
        segment_bytes=segment_bytes,
        autocheckpoint_bytes=autocheckpoint_bytes,
    )
    wal.last_lsn = max_lsn
    if checkpointed:
        # The old segments stay on disk until the new archive file is in
        # place, so a crash *during* recovery just recovers again.
        wal.checkpoint(database)
    else:
        # The old segments are empty: drop them so that the log is one
        # segment file, as after a checkpoint.
        wal._truncate()
        wal.checkpoint_lsn = checkpoint_lsn
    database.wal = wal
    duration_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    _registry.counter("minisql.wal.recoveries").inc()
    _registry.counter("minisql.wal.recovered_records").inc(applied)
    _log.info(
        "recover",
        path=str(archive),
        checkpoint_restored=restored,
        wal_records=len(records),
        applied=applied,
        discarded_txns=len(discarded),
        torn_tail=not clean,
        rows_restored=rows_restored,
        sql_statements=sql_statements,
        checkpointed=checkpointed,
        duration_ms=duration_ms,
    )
    return database


def _apply_records(
    database, records: list[tuple], checkpoint_lsn: int
) -> tuple[int, set[int]]:
    """Replay committed records past ``checkpoint_lsn``.

    Returns (applied_count, discarded_txn_ids).  Row mutations are
    applied straight to the row stores; indexes are rebuilt once
    afterwards (:func:`_rebuild_after_recovery`).
    """
    committed = {0}
    for record in records:
        if record[2] == "commit":
            committed.add(record[1])
    applied = 0
    discarded: set[int] = set()
    executor = None
    for record in records:
        lsn, txn, op = record[0], record[1], record[2]
        if lsn <= checkpoint_lsn:
            continue
        if txn not in committed:
            if op not in ("begin", "commit", "rollback"):
                discarded.add(txn)
            continue
        if op in ("begin", "commit", "rollback"):
            continue
        if op == "ddl":
            if executor is None:
                from .executor import Executor

                executor = Executor(database)
            from .parser import parse

            for statement in parse(record[3]):
                executor.execute(statement)
            applied += 1
            continue
        table = database.tables.get(str(record[3]).lower())
        if table is None:
            continue  # table dropped later in history; nothing to apply
        if op == "ins":
            rowid, row = record[4], list(record[5])
            table.rows[rowid] = row
            if rowid >= table._next_rowid:
                table._next_rowid = rowid + 1
        elif op == "bmany":
            start, rows = record[4], record[5]
            for i, row in enumerate(rows):
                table.rows[start + i] = list(row)
            if rows and start + len(rows) > table._next_rowid:
                table._next_rowid = start + len(rows)
        elif op == "del":
            table.rows.pop(record[4], None)
        elif op == "upd":
            # Via apply_raw_update, not in-place row mutation: column
            # tables hand out materialised copies, so writes must go
            # back through the store.
            table.apply_raw_update(record[4], record[5])
        applied += 1
    return applied, discarded


def _rebuild_after_recovery(database) -> None:
    """Make derived state consistent with the replayed row stores:
    every index rebuilt, rowid/autoincrement high-water marks bumped."""
    for table in database.tables.values():
        if table.rows:
            top = max(table.rows)
            if top >= table._next_rowid:
                table._next_rowid = top + 1
        for position in table._pk_positions:
            if table.columns[position].affinity != "INTEGER":
                continue
            for row in table.rows.values():
                value = row[position]
                if isinstance(value, int) and value > table.last_autoincrement:
                    table.last_autoincrement = value
        for index in table.indexes.values():
            index.rebuild()

"""WAL-shipped read replicas for MiniSQL.

The PR 4 write-ahead log doubles as a replication stream: every
committed mutation of a file-backed archive is already a CRC-framed
logical record with a monotonic LSN.  A replica bootstraps from the
primary's checkpoint (the SQL dump + recovery trailer), then *tails*
the log — fetching records past its applied LSN, buffering each
transaction until its ``commit`` record arrives, and applying
committed work to an in-memory database it serves read-only.

Three cooperating pieces:

:class:`WalShipper`
    Primary-side hook.  ``snapshot()`` hands out the checkpoint script;
    ``fetch(after_lsn)`` re-frames every record past the replica's LSN
    with the on-disk CRC framing, so corruption anywhere between
    primary disk and replica memory is caught by the same
    :func:`~repro.db.minisql.wal.decode_buffer` used in crash
    recovery.  When the requested LSN predates the primary's own
    checkpoint (the segments were truncated), it answers ``resync`` and
    the replica re-bootstraps.

:class:`FileWalSource` / :class:`RemoteWalSource`
    Transport adapters with the same ``snapshot()``/``fetch()``
    surface: file-based tailing for same-host replicas and tests,
    JSON-RPC over the PerfExplorer wire protocol (``repl_snapshot`` /
    ``wal_ship`` methods, frames base64-wrapped) for the real thing.

:class:`Replica`
    The replay loop.  Idempotence is LSN-based: records at or below
    ``applied_lsn`` are skipped, so restarts, duplicated fetches and
    overlapping batches all converge.  Applies run under the replica
    database's writer lock with snapshot isolation enabled, so reads
    served concurrently never observe a half-applied batch.

Failure model: a torn segment at the primary stops the ship at the
tear, exactly like local recovery — the replica holds at the committed
prefix and resumes once the primary recovers.  A killed replica loses
only its in-memory state and re-bootstraps.  A killed primary leaves
replicas serving their last applied state (stale but consistent);
clients fail over to them for reads.
"""

from __future__ import annotations

import base64
import os
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _registry
from repro.testing import faults

from .errors import OperationalError
from .storage import Database
from .wal import _encode_record, decode_buffer, read_records
from .dump import parse_meta, restore_dump

_log = get_logger("repro.db.minisql.replica")

_LAG_SECONDS = _registry.gauge("replica.replication_lag_seconds")
_LAG_RECORDS = _registry.gauge("replica.replication_lag_records")
_APPLIED_LSN = _registry.gauge("replica.applied_lsn")
_BATCHES = _registry.counter("replica.batches_applied")
_RECORDS = _registry.counter("replica.records_applied")
_RESYNCS = _registry.counter("replica.resyncs")

#: fetch() caps one reply to this many records so a far-behind replica
#: streams in bounded batches instead of one giant message.
DEFAULT_FETCH_LIMIT = 10_000


class ReplicationError(OperationalError):
    pass


# ---------------------------------------------------------------------------
# primary side
# ---------------------------------------------------------------------------


class WalShipper:
    """Serves checkpoint snapshots and WAL tails for one primary."""

    def __init__(self, database: Database):
        if database.wal is None:
            raise ReplicationError(
                "WAL shipping requires a file-backed archive (the WAL is "
                "the replication stream)"
            )
        self.database = database
        #: replica_id -> {"lsn", "ts"} as observed from fetches; feeds
        #: ``perfdmf replicas`` on the primary.
        self.replicas: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()

    def snapshot(self) -> dict[str, Any]:
        """The bootstrap payload: checkpoint script + its base LSN."""
        wal = self.database.wal
        # Hold the WAL mutex so no checkpoint swaps the archive file
        # between reading the script and reading its base LSN.
        with wal._lock:
            with open(wal.path, "r", encoding="utf-8", newline="") as fh:
                script = fh.read()
            base_lsn = wal.checkpoint_lsn
            last_lsn = wal.last_lsn
        return {"script": script, "base_lsn": base_lsn, "last_lsn": last_lsn}

    def fetch(
        self,
        after_lsn: int,
        replica_id: Optional[str] = None,
        limit: int = DEFAULT_FETCH_LIMIT,
    ) -> dict[str, Any]:
        """Ship CRC-framed records with LSN > ``after_lsn``."""
        faults.crash_point("replica.ship.fetch")
        wal = self.database.wal
        with wal._lock:
            if wal._fh is not None:
                wal._fh.flush()  # appended frames must be readable below
            checkpoint_lsn = wal.checkpoint_lsn
            last_lsn = wal.last_lsn
            if after_lsn < checkpoint_lsn:
                # The records this replica needs were folded into a
                # checkpoint and truncated — it must re-bootstrap.
                reply: dict[str, Any] = {
                    "resync": True,
                    "checkpoint_lsn": checkpoint_lsn,
                    "last_lsn": last_lsn,
                }
                self._observe(replica_id, after_lsn)
                return reply
            records, clean = read_records(wal.path)
        wanted = [r for r in records if r[0] > after_lsn]
        truncated = len(wanted) > limit
        if truncated:
            wanted = wanted[:limit]
        frames = b"".join(_encode_record(record) for record in wanted)
        self._observe(replica_id, after_lsn)
        return {
            "resync": False,
            "frames": frames,
            "count": len(wanted),
            "last_lsn": last_lsn,
            "clean": clean,
            "more": truncated,
        }

    def _observe(self, replica_id: Optional[str], lsn: int) -> None:
        if not replica_id:
            return
        with self._lock:
            self.replicas[str(replica_id)] = {"lsn": lsn, "ts": time.time()}

    def status(self) -> dict[str, Any]:
        wal = self.database.wal
        with self._lock:
            replicas = {
                rid: dict(info) for rid, info in self.replicas.items()
            }
        now = time.time()
        for info in replicas.values():
            info["seconds_since_fetch"] = round(now - info["ts"], 3)
        return {
            "role": "primary",
            "last_lsn": wal.last_lsn if wal is not None else 0,
            "checkpoint_lsn": wal.checkpoint_lsn if wal is not None else 0,
            "replicas": replicas,
        }


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class FileWalSource:
    """Tail a primary's archive + segments through the filesystem."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path).resolve()

    def _read_script(self) -> str:
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()

    def _base_lsn(self, script: str) -> int:
        meta = parse_meta(script)
        return int(meta.get("last_lsn", 0)) if meta else 0

    def snapshot(self) -> dict[str, Any]:
        script = self._read_script()
        base_lsn = self._base_lsn(script)
        return {"script": script, "base_lsn": base_lsn, "last_lsn": base_lsn}

    def fetch(self, after_lsn: int, limit: int = DEFAULT_FETCH_LIMIT) -> dict[str, Any]:
        base_lsn = self._base_lsn(self._read_script())
        if after_lsn < base_lsn:
            return {"resync": True, "checkpoint_lsn": base_lsn}
        records, clean = read_records(self.path)
        wanted = [r for r in records if r[0] > after_lsn]
        truncated = len(wanted) > limit
        if truncated:
            wanted = wanted[:limit]
        last_lsn = max([base_lsn] + [r[0] for r in records], default=0)
        return {
            "resync": False,
            "records": wanted,
            "count": len(wanted),
            "last_lsn": last_lsn,
            "clean": clean,
            "more": truncated,
        }

    def close(self) -> None:  # symmetry with RemoteWalSource
        pass


class RemoteWalSource:
    """Tail a primary over the PerfExplorer wire protocol."""

    def __init__(
        self,
        host: str,
        port: int,
        replica_id: Optional[str] = None,
        timeout: float = 10.0,
        client: Optional[Any] = None,
    ):
        if client is None:
            # Lazy upward import: the db layer only touches the explorer
            # client when a remote replica is actually constructed.
            from repro.explorer.client import PerfExplorerClient

            client = PerfExplorerClient(host, port, timeout=timeout)
        self.client = client
        self.replica_id = replica_id

    def snapshot(self) -> dict[str, Any]:
        return self.client.call("repl_snapshot")

    def fetch(self, after_lsn: int, limit: int = DEFAULT_FETCH_LIMIT) -> dict[str, Any]:
        reply = self.client.call(
            "wal_ship",
            after_lsn=int(after_lsn),
            replica_id=self.replica_id,
            limit=int(limit),
        )
        frames_b64 = reply.pop("frames_b64", None)
        if frames_b64 is not None:
            reply["frames"] = base64.b64decode(frames_b64)
        return reply

    def close(self) -> None:
        self.client.close()


# ---------------------------------------------------------------------------
# replica
# ---------------------------------------------------------------------------


class Replica:
    """Replays a shipped WAL into an in-memory database it owns."""

    def __init__(
        self,
        source,
        name: Optional[str] = None,
        poll_interval: float = 0.25,
        fetch_limit: int = DEFAULT_FETCH_LIMIT,
    ):
        self.source = source
        self.name = name or f"replica-{os.getpid()}"
        self.poll_interval = poll_interval
        self.fetch_limit = fetch_limit
        self.database = Database()
        # Served reads pin MVCC snapshots, so replay batches (which run
        # under the writer lock) can never tear a concurrent read.
        from . import snapshot as _snapshot

        _snapshot.enable(self.database)
        self.state = "init"
        self.applied_lsn = 0
        self.primary_lsn = 0
        self.batches_applied = 0
        self.records_applied = 0
        self.resyncs = 0
        self.errors = 0
        self.last_error: Optional[str] = None
        self.last_poll_ts: Optional[float] = None
        #: Wall-clock instant the replica was last fully caught up.
        self.caught_up_ts: Optional[float] = None
        #: txn id -> buffered records awaiting that txn's commit (a
        #: fetch batch may end mid-transaction).
        self._pending: dict[int, list[tuple]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()  # serialises poll_once callers

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Replica":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"minisql-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
        close = getattr(self.source, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass
        if self.state != "stopped":
            self.state = "stopped"

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except Exception as exc:  # transport hiccup: keep tailing
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                if self.state not in ("stopped",):
                    self.state = "disconnected"
                _log.warning(
                    "replica_poll_error", replica=self.name,
                    error=self.last_error,
                )
            self._stop.wait(self.poll_interval)

    # -- replication protocol ------------------------------------------------

    def poll_once(self) -> int:
        """One bootstrap-or-fetch-and-apply cycle; returns records applied."""
        with self._lock:
            if self.state in ("init", "resync"):
                self._bootstrap()
            applied = self._fetch_and_apply()
            self.last_poll_ts = time.time()
            self._export_gauges()
            return applied

    def catch_up(self, timeout: float = 30.0) -> None:
        """Poll until no new records arrive (tests / initial sync)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            applied = self.poll_once()
            if (
                applied == 0
                and self.state == "streaming"
                and self.applied_lsn >= self.primary_lsn
            ):
                return
        raise ReplicationError(
            f"{self.name} failed to catch up within {timeout}s "
            f"(state={self.state}, applied_lsn={self.applied_lsn}, "
            f"primary_lsn={self.primary_lsn})"
        )

    def _bootstrap(self) -> None:
        reply = self.source.snapshot()
        script = reply["script"]
        db = self.database
        meta = parse_meta(script)
        with db.txn_lock:
            db.tables.clear()
            db.index_owner.clear()
            db.foreign_keys.clear()
            restore_dump(db, script, meta)
            # Restore re-runs DDL, which already bumps schema_version;
            # one extra bump guards the table-clearing itself.
            db.schema_version += 1
        self._pending.clear()
        self.applied_lsn = int(reply.get("base_lsn", 0))
        self.primary_lsn = int(reply.get("last_lsn", self.applied_lsn))
        self.state = "streaming"
        faults.crash_point("replica.bootstrap.after")
        _log.info(
            "replica_bootstrap", replica=self.name,
            base_lsn=self.applied_lsn, tables=len(db.tables),
        )

    def _fetch_and_apply(self) -> int:
        reply = self.source.fetch(self.applied_lsn, limit=self.fetch_limit)
        if reply.get("resync"):
            self.state = "resync"
            self.resyncs += 1
            _RESYNCS.inc()
            _log.info(
                "replica_resync", replica=self.name,
                applied_lsn=self.applied_lsn,
                primary_checkpoint_lsn=reply.get("checkpoint_lsn"),
            )
            return 0
        records = reply.get("records")
        if records is None:
            # A CRC tear inside the shipped batch truncates it at the
            # tear: the committed prefix still applies and the next
            # fetch re-requests everything after it.
            records, _clean = decode_buffer(reply.get("frames", b""))
        self.primary_lsn = max(
            self.primary_lsn, int(reply.get("last_lsn", 0))
        )
        applied = self._apply(records)
        if self.applied_lsn >= self.primary_lsn:
            self.caught_up_ts = time.time()
        self.state = "streaming"
        return applied

    def _apply(self, records: list[tuple]) -> int:
        if not records:
            return 0
        db = self.database
        touched: set[str] = set()
        applied = 0
        with db.txn_lock:
            faults.crash_point("replica.apply.before")
            for record in records:
                lsn = record[0]
                if lsn <= self.applied_lsn:
                    continue  # idempotent replay: already applied
                applied += self._consume(record, touched)
                self.applied_lsn = lsn
            self._finish_tables(touched)
            faults.crash_point("replica.apply.after")
        if applied:
            self.batches_applied += 1
            self.records_applied += applied
            _BATCHES.inc()
            _RECORDS.inc(applied)
        return applied

    def _consume(self, record: tuple, touched: set[str]) -> int:
        """Route one record: buffer per-txn, apply at commit."""
        txn, op = record[1], record[2]
        if txn == 0:
            self._apply_op(record, touched)
            return 1
        if op == "begin":
            self._pending[txn] = []
            return 0
        if op == "rollback":
            self._pending.pop(txn, None)
            return 0
        if op == "commit":
            buffered = self._pending.pop(txn, [])
            for item in buffered:
                self._apply_op(item, touched)
            return len(buffered)
        self._pending.setdefault(txn, []).append(record)
        return 0

    def _apply_op(self, record: tuple, touched: set[str]) -> None:
        """Mirror of recovery's record application, one record at a time."""
        op = record[2]
        db = self.database
        if op == "ddl":
            from .executor import Executor
            from .parser import parse

            executor = Executor(db)
            for statement in parse(record[3]):
                executor.execute(statement)
            return
        key = str(record[3]).lower()
        table = db.tables.get(key)
        if table is None:
            return  # table dropped later in history
        touched.add(key)
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
            table.apply_raw_update(record[4], record[5])

    def _finish_tables(self, touched: set[str]) -> None:
        """Post-batch fixups for mutated tables: rowid high-water marks,
        index rebuilds, and a version bump so MVCC snapshot stamps (and
        cached plans' data) see the new batch."""
        db = self.database
        for key in touched:
            table = db.tables.get(key)
            if table is None:
                continue
            if table.rows:
                top = max(table.rows)
                if top >= table._next_rowid:
                    table._next_rowid = top + 1
            for index in table.indexes.values():
                index.rebuild()
            table.version += 1

    # -- introspection -------------------------------------------------------

    def replication_lag(self) -> tuple[int, float]:
        """(records behind, seconds since last caught up)."""
        lag_records = max(0, self.primary_lsn - self.applied_lsn)
        if lag_records == 0:
            return 0, 0.0
        reference = self.caught_up_ts or self.last_poll_ts
        if reference is None:
            return lag_records, 0.0
        return lag_records, max(0.0, time.time() - reference)

    def _export_gauges(self) -> None:
        lag_records, lag_seconds = self.replication_lag()
        _LAG_SECONDS.set(round(lag_seconds, 6))
        _LAG_RECORDS.set(lag_records)
        _APPLIED_LSN.set(self.applied_lsn)

    def status(self) -> dict[str, Any]:
        lag_records, lag_seconds = self.replication_lag()
        return {
            "role": "replica",
            "name": self.name,
            "state": self.state,
            "applied_lsn": self.applied_lsn,
            "primary_lsn": self.primary_lsn,
            "replication_lag_records": lag_records,
            "replication_lag_seconds": round(lag_seconds, 6),
            "batches_applied": self.batches_applied,
            "records_applied": self.records_applied,
            "resyncs": self.resyncs,
            "errors": self.errors,
            "last_error": self.last_error,
            "pending_transactions": len(self._pending),
        }

    # -- serving -------------------------------------------------------------

    def shared_url(self) -> str:
        """Register the replica database under a shared name and return
        the ``minisql://`` URL the PerfExplorer server can mount."""
        from .engine import register_shared_database

        name = f"replica/{self.name}"
        register_shared_database(name, self.database)
        return f"minisql://{name}"

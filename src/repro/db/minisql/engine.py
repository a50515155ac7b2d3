"""DB-API 2.0 style front end for MiniSQL.

``connect()`` returns a :class:`Connection` whose cursors behave like
sqlite3 cursors: ``execute(sql, params)``, ``executemany``,
``fetchone/fetchmany/fetchall``, ``description``, ``lastrowid``,
``rowcount``, iteration; ``fetchcolumns`` returns a result column by
column.  Parsed statements are cached by SQL text so
``executemany`` and repeated prepared statements skip the parser — the
difference is ~20x on PerfDMF's bulk-insert path.

Connections support sqlite3-compatible *deferred* transactions: the
first mutating statement implicitly begins a transaction, and
``commit()``/``rollback()`` end it.  ``isolation_level=None`` gives
autocommit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import tracer as _tracer

from .ast_nodes import (
    AlterTableAddColumn, AlterTableRename, BeginTransaction,
    CommitTransaction, CreateIndex, CreateTable, Delete, DropIndex,
    DropTable, Explain, Insert, Pragma, RollbackTransaction, Select,
    Statement, Update,
)
from .errors import InterfaceError, OperationalError, ProgrammingError
from .executor import Executor, ResultSet
from .parser import parse
from .storage import Database

_slow_log = get_logger("repro.db.minisql")

_snapshot_reads = _metrics_registry.counter("minisql.snapshot.reads")

#: What a cursor holds before its first statement and after its rows
#: were handed out as columns.
_NO_ROWS = ResultSet([], [])

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"

_MUTATING = (Insert, Update, Delete)
#: Statements that change the catalog: they never open a deferred
#: transaction (sqlite semantics) but still take the database writer
#: lock when run outside one, so concurrent checkpoints/dumps see a
#: consistent catalog.
_DDL = (
    AlterTableAddColumn, AlterTableRename, CreateIndex, CreateTable,
    DropIndex, DropTable,
)

#: Per-connection parsed-statement cache capacity (LRU-evicted).
_STATEMENT_CACHE_SIZE = 512

#: Shared in-memory databases, keyed by name — mirrors sqlite's
#: ``file::memory:?cache=shared`` so several connections can see one DB
#: (PerfExplorer's server threads use this).
_SHARED_DATABASES: dict[str, Database] = {}
#: File-backed (WAL-durable) databases, keyed by resolved archive path.
#: Connections to the same path share one Database + WAL, like in-process
#: sqlite; there is no cross-process file locking (single-writer-process
#: assumption, documented in DESIGN.md §9).
_FILE_DATABASES: dict[str, Database] = {}
_SHARED_LOCK = threading.Lock()


def _is_file_target(database: str) -> bool:
    """File-backed archives are opt-in via an explicit marker: the
    ``.mdb`` suffix or a ``file:`` prefix.  Any other name — even one
    containing path separators — keeps its pre-durability meaning of a
    named shared in-memory database, so no previously valid target
    silently starts creating files on disk."""
    return database.startswith("file:") or database.endswith(".mdb")


def _refuse_shard_resident_rows(archive: str) -> None:
    """Refuse an archive some of whose rows live outside it.

    Releases that had ``PRAGMA shards`` could keep a table's rows only
    in ``<archive>.shards/shard-K.mdb`` files, listed under ``resident``
    in that directory's ``meta.json``; ``pending`` marked an interrupted
    move between the archive and those files.  This release cannot read
    them, so opening such an archive would show those tables empty.  A
    meta that lists neither means every row is in the archive itself.
    """
    import json

    try:
        with open(archive + ".shards/meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        return
    if not isinstance(meta, dict):
        return
    tables = set(meta.get("resident") or ())
    pending = meta.get("pending")
    if isinstance(pending, dict):
        tables.add(pending.get("table") or "?")
    if tables:
        raise OperationalError(
            f"archive {archive} keeps rows of {', '.join(sorted(tables))} "
            f"in {archive}.shards, which this release cannot read; run "
            "PRAGMA shards(off) on it with a release from before sharding "
            "was removed to move them back into the archive"
        )


def connect(database: str = ":memory:", isolation_level: Optional[str] = "") -> "Connection":
    """Open a MiniSQL connection.

    ``":memory:"`` creates a fresh private database.  A target ending
    in ``.mdb`` — or carrying an explicit ``file:`` prefix, for archive
    paths with other extensions — opens a durable file-backed archive:
    the database is recovered from its checkpoint + write-ahead log on
    first open and every mutation is WAL-logged (see
    :mod:`~repro.db.minisql.wal`).  Any other name (path separators
    included) refers to a named shared in-memory database: connections
    passing the same name share one catalog.
    """
    if database == ":memory:":
        db = Database()
    elif _is_file_target(database):
        from pathlib import Path

        from . import wal as _wal

        target = database[len("file:"):] if database.startswith("file:") else database
        key = str(Path(target).resolve())
        with _SHARED_LOCK:
            db = _FILE_DATABASES.get(key)
            if db is None:
                _refuse_shard_resident_rows(key)
                db = _wal.open_file_database(key)
                _FILE_DATABASES[key] = db
    else:
        with _SHARED_LOCK:
            db = _SHARED_DATABASES.setdefault(database, Database())
    return Connection(db, isolation_level=isolation_level)


def register_shared_database(name: str, database: Database) -> str:
    """Publish an existing Database object under a shared name.

    Later ``connect(name)`` calls return connections onto this object —
    the hook replicas use to mount their replayed database behind the
    PerfExplorer server.  Returns the name for convenience.
    """
    if name == ":memory:" or _is_file_target(name):
        raise ProgrammingError(f"cannot register {name!r} as a shared database")
    with _SHARED_LOCK:
        _SHARED_DATABASES[name] = database
    return name


def reset_shared_databases() -> None:
    """Drop all named shared and file-backed databases (test isolation
    helper).  File-backed databases changed since their last checkpoint
    are checkpointed first so their archives stay loadable by a later
    open."""
    with _SHARED_LOCK:
        _SHARED_DATABASES.clear()
        for db in _FILE_DATABASES.values():
            if db.wal is not None:
                try:
                    if not db.in_transaction and db.wal.changed_since_checkpoint():
                        db.wal.checkpoint(db)
                except OSError:
                    pass  # archive directory may be gone (tmp_path teardown)
                finally:
                    db.wal.close()
                    db.wal = None
        _FILE_DATABASES.clear()


class Connection:
    """One client connection to a MiniSQL database."""

    def __init__(self, database: Database, isolation_level: Optional[str] = ""):
        self._database = database
        self._executor = Executor(database)
        self._closed = False
        self._statement_cache: OrderedDict[str, list[Statement]] = OrderedDict()
        self._lock = threading.RLock()
        self.isolation_level = isolation_level  # None = autocommit
        self.in_transaction = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            if self.in_transaction:
                self.rollback()
            wal = self._database.wal
            if wal is not None:
                # Fold the WAL into a fresh checkpoint so a clean close
                # leaves a plain (sqlite-loadable) dump and an empty log.
                # After no change the archive already is one, and is
                # left untouched.  The txn lock keeps another
                # connection's open transaction out of the dump.
                with self._database.txn_lock:
                    if wal.changed_since_checkpoint():
                        wal.checkpoint(self._database)
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("cannot operate on a closed connection")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    # -- transactions --------------------------------------------------------

    def _begin_transaction(self) -> None:
        """Start a transaction, waiting for the database writer lock.

        Named shared databases may have several connections; like
        sqlite's database-level lock, only one transaction runs at a
        time and others block until commit/rollback.
        """
        if self.in_transaction:
            return
        self._database.txn_lock.acquire()
        self._database.begin()
        self.in_transaction = True

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            if self.in_transaction:
                self._database.commit()
                self.in_transaction = False
                self._database.txn_lock.release()

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self.in_transaction:
                self._database.rollback()
                self.in_transaction = False
                self._database.txn_lock.release()

    # -- bulk load ------------------------------------------------------------

    @contextmanager
    def bulk_load(self) -> Iterator["Connection"]:
        """Scoped bulk-load mode (``PRAGMA bulk_load``).

        Inside the block, ``executemany`` inserts append rows with
        secondary index maintenance deferred; indexes are rebuilt once on
        exit (even on error — rollback remains the caller's call).
        """
        self.execute("PRAGMA bulk_load(on)")
        try:
            yield self
        finally:
            self.execute("PRAGMA bulk_load(off)")

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Snapshot of the database's access-path counters.

        ``rows_scanned`` counts every row produced by a base-table access
        path (full scans charge the whole table); ``rows_via_index`` is
        the subset that came through an index, so an indexed range query
        shows rows-scanned proportional to its result, not the table.
        Counters are shared by all connections to the same database.
        """
        self._check_open()
        stats = dict(self._database.stats)
        stats["columnar_tables"] = sum(
            1 for t in self._database.tables.values() if t.is_columnar
        )
        wal = self._database.wal
        if wal is not None:
            stats["wal_records"] = wal.records_written
            stats["wal_bytes"] = wal.bytes_written
            stats["wal_fsyncs"] = wal.fsyncs
            stats["wal_checkpoints"] = wal.checkpoints
        return stats

    def reset_stats(self) -> None:
        """Zero the access-path counters (benchmark bracketing helper)."""
        self._check_open()
        self._database.reset_stats()

    # -- cursors ---------------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterator[Sequence[Any]]) -> "Cursor":
        return self.cursor().executemany(sql, seq_of_params)

    def executescript(self, script: str) -> "Cursor":
        cursor = self.cursor()
        self.commit()
        for statement in self._parse(script):
            self._run(statement, (), cursor)
        self.commit()
        return cursor

    # -- internals ----------------------------------------------------------------

    def _parse(self, sql: str) -> list[Statement]:
        cache = self._statement_cache
        cached = cache.get(sql)
        if cached is None:
            cached = parse(sql)
            while len(cache) >= _STATEMENT_CACHE_SIZE:
                cache.popitem(last=False)  # evict least recently used
            cache[sql] = cached
        else:
            cache.move_to_end(sql)
        return cached

    def _run(self, statement: Statement, params: Sequence[Any], cursor: "Cursor") -> ResultSet:
        with self._lock:
            if isinstance(statement, BeginTransaction):
                self._begin_transaction()
                return ResultSet([], [], rowcount=0)
            if isinstance(statement, CommitTransaction):
                self.commit()
                return ResultSet([], [], rowcount=0)
            if isinstance(statement, RollbackTransaction):
                self.rollback()
                return ResultSet([], [], rowcount=0)
            snap_mgr = self._database.snapshot_mgr
            if (
                snap_mgr is not None
                and isinstance(statement, Select)
                and not self.in_transaction
            ):
                # MVCC snapshot read: execute against the pinned
                # copy-on-write snapshot — never touches (or waits on)
                # the writer lock.  Inside an explicit transaction the
                # connection reads its own uncommitted state instead.
                self._database.stats["snapshot_selects"] += 1
                _snapshot_reads.inc()
                return Executor(snap_mgr.pin()).execute(statement, params)
            mutating = isinstance(statement, _MUTATING) or (
                isinstance(statement, Explain)
                and statement.analyze
                and isinstance(statement.statement, _MUTATING)
            )
            if mutating and self.isolation_level is not None:
                self._begin_transaction()
            elif (
                (mutating or isinstance(statement, _DDL))
                and not self.in_transaction
            ):
                # Autocommit (or DDL outside a transaction): hold the
                # database writer lock for the statement so shared-DB
                # writes serialise against other connections'
                # transactions and close-time checkpoints.
                with self._database.txn_lock:
                    return self._executor.execute(statement, params)
            return self._executor.execute(statement, params)

    # -- statement observation ------------------------------------------------

    def _observing(self) -> bool:
        """True when statement timing is worth the perf_counter calls."""
        return self._database.slow_query_ms is not None or _tracer.enabled

    def _observe_statement(
        self,
        sql: str,
        statement: Statement,
        elapsed: float,
        params: Sequence[Any] = (),
    ) -> None:
        """Record a timed statement: trace span and/or slow-query log."""
        if _tracer.enabled:
            _tracer.record("minisql.execute", elapsed, sql=sql.strip()[:200])
        threshold = self._database.slow_query_ms
        if (
            threshold is not None
            and elapsed * 1000.0 >= threshold
            and not isinstance(statement, Pragma)  # don't log the observer
        ):
            entry = {
                "sql": sql.strip()[:500],
                "plan": self._plan_summary(statement, params),
                "duration_ms": round(elapsed * 1000.0, 3),
            }
            self._database.slow_queries.append(entry)
            _slow_log.warning("slow_query", **entry)

    def _plan_summary(self, statement: Statement, params: Sequence[Any]) -> str:
        """Plan description for the slow-query log (lazy: only slow
        statements pay for the EXPLAIN re-plan)."""
        try:
            if isinstance(statement, Select):
                result = self._executor.execute(Explain(statement), params)
                return "; ".join(str(row[1]) for row in result.rows)
        except Exception:
            pass
        return type(statement).__name__.upper()


class Cursor:
    """sqlite3-compatible cursor."""

    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        self._result = _NO_ROWS
        self._cursor_index = 0
        self.description: Optional[list[tuple]] = None
        self.rowcount = -1
        self.lastrowid: Optional[int] = None
        self._closed = False

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        self._check_open()
        if isinstance(params, (str, bytes)):
            raise InterfaceError("parameters must be a sequence, not a string")
        statements = self.connection._parse(sql)
        if len(statements) != 1:
            raise ProgrammingError(
                "execute() accepts exactly one statement; use executescript()"
            )
        connection = self.connection
        if connection._observing():
            t0 = time.perf_counter()
            result = connection._run(statements[0], tuple(params), self)
            connection._observe_statement(
                sql, statements[0], time.perf_counter() - t0, tuple(params)
            )
        else:
            result = connection._run(statements[0], tuple(params), self)
        self._install(result)
        return self

    def executemany(self, sql: str, seq_of_params) -> "Cursor":
        self._check_open()
        statements = self.connection._parse(sql)
        if len(statements) != 1:
            raise ProgrammingError("executemany() accepts exactly one statement")
        statement = statements[0]
        if isinstance(statement, Select):
            raise ProgrammingError("executemany() cannot be used with SELECT")
        connection = self.connection
        if (
            isinstance(statement, Insert)
            and statement.select is None
            and len(statement.rows) == 1
        ):
            # Bulk-insert fast path: one lock acquisition, one dispatch.
            observing = connection._observing()
            t0 = time.perf_counter() if observing else 0.0
            with connection._lock:
                if connection.isolation_level is not None:
                    connection._begin_transaction()
                if connection.in_transaction:
                    result = connection._executor.execute_insert_batch(
                        statement, seq_of_params
                    )
                else:
                    # Autocommit batch: serialise on the writer lock like
                    # any other autocommit mutation.
                    with connection._database.txn_lock:
                        result = connection._executor.execute_insert_batch(
                            statement, seq_of_params
                        )
            if observing:
                connection._observe_statement(
                    sql, statement, time.perf_counter() - t0
                )
            self._install(result)
            return self
        total = 0
        result = None
        for params in seq_of_params:
            result = self.connection._run(statement, tuple(params), self)
            if result.rowcount > 0:
                total += result.rowcount
        if result is None:
            result = ResultSet([], [], rowcount=0)
        result.rowcount = total
        self._install(result)
        return self

    def executescript(self, script: str) -> "Cursor":
        self.connection.executescript(script)
        return self

    def _install(self, result: ResultSet) -> None:
        self._result = result
        self._cursor_index = 0
        self.rowcount = result.rowcount
        if result.lastrowid is not None:
            self.lastrowid = result.lastrowid
        if result.columns:
            self.description = [
                (name, None, None, None, None, None, None) for name in result.columns
            ]
        else:
            self.description = None

    # -- fetching -------------------------------------------------------------

    def fetchone(self) -> Optional[tuple[Any, ...]]:
        self._check_open()
        rows = self._result.rows
        if self._cursor_index >= len(rows):
            return None
        row = rows[self._cursor_index]
        self._cursor_index += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple[Any, ...]]:
        self._check_open()
        if size is None:
            size = self.arraysize
        chunk = self._result.rows[self._cursor_index : self._cursor_index + size]
        self._cursor_index += len(chunk)
        return list(chunk)

    def fetchall(self) -> list[tuple[Any, ...]]:
        self._check_open()
        rows = self._result.rows
        chunk = rows[self._cursor_index :]
        self._cursor_index = len(rows)
        return list(chunk)

    def fetchcolumns(self) -> list[Sequence[Any]]:
        """The remaining rows as one sequence per result column.

        The vector plan's output columns (a single-table SELECT on a
        columnar table, with no sorting ORDER BY, DISTINCT, LIMIT or
        compound operator after it) come back as they are, never zipped
        into row tuples; any other result is transposed from its rows.
        """
        self._check_open()
        columns = self._result.column_values
        if columns is not None:  # no row of it has been fetched
            self._result = _NO_ROWS
            return columns
        rows = self.fetchall()
        if rows:
            return [list(column) for column in zip(*rows)]
        return [[] for _ in self.description or ()]

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._closed = True
        self._result = _NO_ROWS

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("cannot operate on a closed cursor")
        self.connection._check_open()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""Backend-neutral database connectivity — PerfDMF's JDBC analog.

The paper (§3.1): *"Access to the SQL interface is provided using the
Java Database Connectivity (JDBC) API.  Because all supported databases
are accessed through a common interface, the tool programmer does not
need to worry about vendor-specific SQL syntax."*

This module is that common interface for the Python reproduction.  A
:class:`DBConnection` wraps a DB-API connection from either runnable
engine and adds

* URL-based connection strings (``sqlite:///path``, ``sqlite://:memory:``,
  ``minisql://shared-name``) mirroring JDBC URLs,
* uniform exceptions (:class:`DatabaseError` et al. re-exported here),
* ``get_metadata(table)`` — the ``getMetaData()`` analog PerfDMF's
  flexible-schema feature is built on,
* registration of the statistics aggregates (STDDEV, VARIANCE) that the
  PerfDMF aggregate API requires but sqlite lacks natively.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro._lazy import lazy_exports
from repro.obs.metrics import registry as _registry
from repro.obs.trace import tracer as _tracer

from . import minisql
from .dialects import Dialect, get_dialect

# Uniform exception aliases (repro.db.errors): both engines raise
# compatible hierarchies, and callers of repro.db catch these.  They
# load sqlite3, so they resolve on first access.
__getattr__ = lazy_exports(__name__, {"errors": (
    "DatabaseError", "IntegrityError", "OperationalError", "ProgrammingError",
)})


@dataclass(frozen=True)
class ColumnMetadata:
    """One column as reported by ``get_metadata`` (getMetaData analog)."""

    name: str
    type_name: str
    not_null: bool
    primary_key: bool
    default: Any = None


class _SqliteStddev:
    """Sample standard deviation aggregate for sqlite (Welford)."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, value: Any) -> None:
        if value is None:
            return
        x = float(value)
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def finalize(self) -> Optional[float]:
        if self.n < 2:
            return None
        return (self.m2 / (self.n - 1)) ** 0.5


class _SqliteVariance(_SqliteStddev):
    def finalize(self) -> Optional[float]:  # type: ignore[override]
        if self.n < 2:
            return None
        return self.m2 / (self.n - 1)


def parse_url(url: str) -> tuple[str, str]:
    """Split a connection URL into (backend, target).

    Accepted forms::

        sqlite://:memory:          in-memory sqlite
        sqlite:///abs/path.db      file-backed sqlite
        sqlite://relative.db       relative path
        minisql://:memory:         private in-memory MiniSQL
        minisql://name             named shared MiniSQL database
        minisql:///abs/path.mdb    durable file-backed MiniSQL archive
                                   (WAL + checkpoint, crash recovery on
                                   open; see repro.db.minisql.wal)
        minisql://file:/abs/path   durable archive at a non-.mdb path

    File-backed MiniSQL is opt-in via the ``.mdb`` suffix or ``file:``
    prefix; any other target (slashes included) is a named shared
    in-memory database.
    """
    if "://" not in url:
        raise ValueError(
            f"malformed database URL {url!r}; expected backend://target"
        )
    backend, _, target = url.partition("://")
    backend = backend.lower()
    if backend not in ("sqlite", "minisql"):
        raise ValueError(
            f"unsupported backend {backend!r}; runnable backends are "
            "'sqlite' and 'minisql'"
        )
    if not target:
        target = ":memory:"
    return backend, target


def connect(url: str = "sqlite://:memory:") -> "DBConnection":
    """Open a :class:`DBConnection` for ``url``."""
    backend, target = parse_url(url)
    if backend == "sqlite":
        import sqlite3

        raw = sqlite3.connect(target, check_same_thread=False)
        raw.create_aggregate("stddev", 1, _SqliteStddev)
        raw.create_aggregate("stdev", 1, _SqliteStddev)
        raw.create_aggregate("variance", 1, _SqliteVariance)
        dialect = get_dialect("sqlite")
    else:
        raw = minisql.connect(target)
        dialect = get_dialect("minisql")
    return DBConnection(raw, backend=backend, dialect=dialect, url=url)


class DBConnection:
    """A live connection to one of the runnable engines.

    Thin by design: PerfDMF's higher layers (schema manager, DB sessions)
    speak plain portable SQL through this object and never import a
    driver module directly.
    """

    def __init__(self, raw: Any, backend: str, dialect: Dialect, url: str):
        self._raw = raw
        self.backend = backend
        self.dialect = dialect
        self.url = url
        self._lock = threading.RLock()
        self._closed = False
        #: Per-stage timings from the most recent bulk ingest
        #: (``ingest_*_seconds``, ``ingest_rows``, ``ingest_rows_per_second``),
        #: filled in by ``save_trial`` and merged into :meth:`stats`.
        self.ingest_stats: dict[str, float] = {}

    # -- core statement API ---------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Execute one statement; returns the backend cursor."""
        if _tracer.enabled:
            with _tracer.span(
                "db.execute", backend=self.backend, sql=sql.strip()[:200]
            ):
                with self._lock:
                    return self._raw.execute(sql, tuple(params))
        with self._lock:
            return self._raw.execute(sql, tuple(params))

    def executemany(self, sql: str, seq: Iterable[Sequence[Any]]) -> Any:
        if _tracer.enabled:
            with _tracer.span(
                "db.executemany", backend=self.backend, sql=sql.strip()[:200]
            ):
                with self._lock:
                    return self._raw.executemany(sql, seq)
        with self._lock:
            return self._raw.executemany(sql, seq)

    def executescript(self, script: str) -> None:
        with self._lock:
            self._raw.executescript(script)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Execute and fetch all rows."""
        return self.execute(sql, params).fetchall()

    def query_columns(
        self, sql: str, params: Sequence[Any] = ()
    ) -> list[Sequence[Any]]:
        """Execute and fetch all rows as one sequence per result column.

        Holds the same values as :meth:`query`, transposed.  On MiniSQL
        a vectorized SELECT's columns arrive without ever being rows: a
        typed column read by one contiguous index probe is an
        ``array.array``, which numpy takes without unboxing.  An empty
        result has one empty sequence per column.
        """
        cursor = self.execute(sql, params)
        if self.backend == "minisql":
            return cursor.fetchcolumns()
        rows = cursor.fetchall()
        if rows:
            return [list(column) for column in zip(*rows)]
        return [[] for _ in cursor.description or ()]

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> Optional[tuple]:
        return self.execute(sql, params).fetchone()

    def scalar(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Execute and return the first column of the first row (or None)."""
        row = self.query_one(sql, params)
        return None if row is None else row[0]

    def insert(self, sql: str, params: Sequence[Any] = ()) -> Optional[int]:
        """Execute an INSERT and return ``lastrowid``."""
        with self._lock:
            cursor = self._raw.execute(sql, tuple(params))
            return cursor.lastrowid

    def stats(self) -> dict[str, Any]:
        """Access-path counters (rows scanned vs. via index) plus the
        per-stage ingest timings of the most recent bulk load.

        Only the minisql backend instruments its planner; sqlite reports
        just the ingest timings so callers can probe either engine
        uniformly.
        """
        merged: dict[str, Any] = {}
        if self.backend == "minisql":
            with self._lock:
                merged.update(self._raw.stats())
        merged.update(self.ingest_stats)
        # Publish the snapshot into the process-global registry so
        # ``repro stats`` and the Prometheus exposition see it too.
        _registry.absorb("db", merged)
        return merged

    def reset_stats(self) -> None:
        self.ingest_stats.clear()
        if self.backend == "minisql":
            with self._lock:
                self._raw.reset_stats()

    # -- bulk load -------------------------------------------------------------

    def begin_bulk(self) -> None:
        """Enter bulk-load mode.

        On minisql this defers secondary index maintenance until
        :meth:`end_bulk` (``PRAGMA bulk_load``); sqlite needs no mode —
        its bulk path is ``executemany`` batching — and silently ignores
        the pragma, keeping the two backends drop-in interchangeable.
        """
        with self._lock:
            self._raw.execute("PRAGMA bulk_load(on)")

    def end_bulk(self) -> None:
        """Leave bulk-load mode, rebuilding deferred indexes (minisql)."""
        with self._lock:
            self._raw.execute("PRAGMA bulk_load(off)")

    @contextmanager
    def bulk_load(self) -> Iterator["DBConnection"]:
        """Transactional bulk load: commit on success, all-or-nothing
        rollback on error; indexes are rebuilt on exit either way."""
        self.begin_bulk()
        try:
            yield self
        except BaseException:
            self.rollback()
            self.end_bulk()
            raise
        else:
            self.end_bulk()
            self.commit()

    def commit(self) -> None:
        with self._lock:
            self._raw.commit()

    def rollback(self) -> None:
        with self._lock:
            self._raw.rollback()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._raw.close()
                self._closed = True

    def __enter__(self) -> "DBConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    # -- metadata (the getMetaData() analog) ------------------------------------

    def table_names(self) -> list[str]:
        if self.backend == "sqlite":
            rows = self.query(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
            return [r[0] for r in rows]
        rows = self.query("PRAGMA table_list")
        return sorted(r[0] for r in rows)

    def has_table(self, name: str) -> bool:
        return name.lower() in {t.lower() for t in self.table_names()}

    def get_metadata(self, table: str) -> list[ColumnMetadata]:
        """Column metadata for ``table``.

        This is the mechanism behind PerfDMF's *flexible schema*: the
        APPLICATION / EXPERIMENT / TRIAL tables may gain or lose metadata
        columns without any code change, because entity objects discover
        columns at runtime instead of hard-coding them (paper §3.2).
        """
        if not _is_safe_identifier(table):
            raise ValueError(f"invalid table name {table!r}")
        rows = self.query(f"PRAGMA table_info({table})")
        if not rows:
            raise LookupError(f"no such table: {table}")
        return [
            ColumnMetadata(
                name=row[1],
                type_name=str(row[2]).upper(),
                not_null=bool(row[3]),
                primary_key=bool(row[5]),
                default=row[4],
            )
            for row in rows
        ]

    def column_names(self, table: str) -> list[str]:
        return [c.name for c in self.get_metadata(table)]


def _is_safe_identifier(name: str) -> bool:
    return bool(name) and all(c.isalnum() or c == "_" for c in name)

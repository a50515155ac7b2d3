"""MVCC snapshot reads for MiniSQL.

``PRAGMA snapshot_isolation(on)`` attaches a :class:`SnapshotManager`
to the database.  SELECT statements issued outside an explicit
transaction then execute against a *pinned snapshot*: an immutable
copy-on-write :class:`~repro.db.minisql.storage.Database` whose tables
are cloned from the last committed state.  Readers therefore never
block on the database writer lock — and, because they touch only the
snapshot, can never stall a writer either.

Copy-on-write granularity is one table, stamped with the PR 6/7
version machinery ``(schema_version, table.version)``:

* a snapshot refresh reuses the cached clone of every table whose
  version stamp is unchanged — only mutated tables are re-cloned;
* row-store tables clone as a shallow ``dict(rows)`` copy sharing the
  row lists themselves (safe: every mutation path *rebinds* a fresh
  list rather than poking the stored one);
* columnar tables clone their typed slabs wholesale
  (``array`` → ``array`` memcpy, NULL byte-maps, escape hatches) via
  :meth:`ColumnData.copy` — the cheap-COW path the columnar layout was
  built for.

Consistency protocol: a refresh briefly takes ``txn_lock`` so it can
only observe a committed state (MiniSQL keeps uncommitted changes in
the live tables, guarded by that lock).  When the lock is contended —
a writer is mid-transaction — and a previous snapshot exists, the
refresh is skipped and the previous snapshot is served instead
(bounded staleness; counted in ``snapshot_stale_serves``).  Only the
very first pin, with no snapshot to fall back on, waits for the lock.

Snapshot databases carry no secondary indexes: clones are scan-only,
which keeps refresh cost proportional to *changed* data instead of
paying index rebuilds.  Compiled plans are shared with the primary —
they are keyed by ``schema_version`` and resolve tables by name at row
production time, so a plan built on either side runs correctly on the
other as long as the schema generation matches (the snapshot copies
the primary's ``schema_version`` verbatim).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.obs.metrics import registry as _metrics

from .storage import Database, Table

_REFRESHES = _metrics.counter("minisql.snapshot.refreshes")
_CLONES = _metrics.counter("minisql.snapshot.table_clones")
_STALE_SERVES = _metrics.counter("minisql.snapshot.stale_serves")
_SELECTS = _metrics.counter("minisql.snapshot.selects")


def clone_table(table: Table) -> Table:
    """Copy-on-write clone of one table (no secondary indexes)."""
    cls = type(table)
    clone = cls(table.name, list(table.columns))
    if table.is_columnar:
        # Slab copy: typed arrays memcpy, maps copy shallowly.  The
        # live table mutates slabs in place, so the snapshot gets its
        # own; values themselves are immutable Python objects.
        clone._cols = [col.copy() for col in table._cols]
        clone._slot_rowids = list(table._slot_rowids)
        clone._slot_of = dict(table._slot_of)
        clone._live = bytearray(table._live)
        clone._dead_count = table._dead_count
    else:
        # Shallow dict copy sharing row lists: mutation paths rebind
        # fresh lists (update_row / apply_raw_update / add_column), so
        # shared lists are never modified underneath the snapshot.
        clone.rows = dict(table.rows)
    clone._next_rowid = table._next_rowid
    clone.last_autoincrement = table.last_autoincrement
    clone.version = table.version
    return clone


class SnapshotManager:
    """Maintains the pinned read snapshot of one live database."""

    def __init__(self, database: Database):
        self.database = database
        #: Serialises refreshes; pin() itself is lock-free on the hot
        #: (snapshot fresh) path.
        self._lock = threading.Lock()
        self._snapshot: Optional[Database] = None
        #: name -> (source table, version, clone) cache reused across
        #: refreshes so an unchanged table is never re-cloned.  The
        #: source is kept because a version only orders the changes of
        #: one Table object: a replica resync rebuilds every table, and
        #: the rebuilt one can start again at the version of the old.
        self._clones: dict[str, tuple[Table, int, Table]] = {}

    # -- public API ----------------------------------------------------------

    def pin(self) -> Database:
        """Return a consistent snapshot database, refreshing if stale.

        Never blocks on an active writer once a snapshot exists: a
        contended refresh serves the previous snapshot instead.
        """
        snap = self._snapshot
        if snap is not None and not self._stale(snap):
            return snap
        return self._refresh()

    def status(self) -> dict:
        snap = self._snapshot
        db = self.database
        return {
            "enabled": True,
            "pinned": snap is not None,
            "snapshot_schema_version": None if snap is None else snap.schema_version,
            "primary_schema_version": db.schema_version,
            "cached_table_clones": len(self._clones),
            "refreshes": db.stats.get("snapshot_refreshes", 0),
            "stale_serves": db.stats.get("snapshot_stale_serves", 0),
            "selects": db.stats.get("snapshot_selects", 0),
        }

    def invalidate(self) -> None:
        with self._lock:
            self._snapshot = None
            self._clones.clear()

    # -- internals -----------------------------------------------------------

    def _stale(self, snap: Database) -> bool:
        db = self.database
        if snap.schema_version != db.schema_version:
            return True
        if len(snap.tables) != len(db.tables):
            return True
        try:
            for key, table in db.tables.items():
                clone = snap.tables.get(key)
                if clone is None or clone.version != table.version:
                    return True
        except RuntimeError:
            # Catalog mutated under us (lock-free check by design):
            # treat as stale; the refresh re-checks under txn_lock.
            return True
        return False

    def _refresh(self) -> Database:
        db = self.database
        with self._lock:
            snap = self._snapshot
            if snap is not None and not self._stale(snap):
                return snap  # raced with another refresher
            # A committed-consistent copy requires the writer lock (the
            # undo-log design keeps uncommitted rows in the live
            # tables).  Block only when there is nothing to fall back
            # on; otherwise serve the previous snapshot.
            if not db.txn_lock.acquire(blocking=snap is None):
                db.stats["snapshot_stale_serves"] += 1
                _STALE_SERVES.inc()
                return snap
            try:
                fresh = self._build()
            finally:
                db.txn_lock.release()
            self._snapshot = fresh
            db.stats["snapshot_refreshes"] += 1
            _REFRESHES.inc()
            return fresh

    def _build(self) -> Database:
        db = self.database
        snap = Database()
        snap.schema_version = db.schema_version
        snap.columnar_default = db.columnar_default
        # Share the stats dict so snapshot-side access-path counters
        # surface through the primary connection's stats().
        snap.stats = db.stats
        snap.foreign_keys = dict(db.foreign_keys)
        snap.index_owner = dict(db.index_owner)
        tables: dict[str, Table] = {}
        clones: dict[str, tuple[Table, int, Table]] = {}
        for key, table in db.tables.items():
            cached = self._clones.get(key)
            if (
                cached is not None
                and cached[0] is table
                and cached[1] == table.version
                and cached[2].columns == table.columns
            ):
                clone = cached[2]
            else:
                clone = clone_table(table)
                db.stats["snapshot_table_clones"] += 1
                _CLONES.inc()
            tables[key] = clone
            clones[key] = (table, table.version, clone)
        snap.tables = tables
        self._clones = clones
        return snap


def enable(database: Database) -> SnapshotManager:
    """Attach (or return the existing) snapshot manager.

    Pins an initial snapshot eagerly so later reads always have a
    consistent fallback and never wait on an active writer.
    """
    if database.snapshot_mgr is None:
        mgr = SnapshotManager(database)
        # Non-blocking so PRAGMA inside a transaction (or racing a
        # writer) cannot deadlock; an unlucky skip just defers the
        # first (blocking) pin to the first snapshot read.
        if database.txn_lock.acquire(blocking=False):
            try:
                mgr._snapshot = mgr._build()
            finally:
                database.txn_lock.release()
        database.snapshot_mgr = mgr
    return database.snapshot_mgr


def disable(database: Database) -> None:
    mgr, database.snapshot_mgr = database.snapshot_mgr, None
    if mgr is not None:
        mgr.invalidate()

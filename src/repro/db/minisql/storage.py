"""In-memory storage engine for MiniSQL: tables, rows, indexes, undo log.

Rows are stored as Python lists inside a per-table list; a row's identity
is its position-independent ``rowid``.  Secondary hash indexes map a
tuple of column values to the set of rowids holding that tuple; they
accelerate equality lookups (the planner consults them) and enforce
UNIQUE constraints.  Ordered (``USING BTREE``) indexes additionally keep
a sorted key array so the planner can answer range predicates and push
``ORDER BY ... LIMIT`` into the index.

Transactions are implemented with an undo log: every mutation appends an
inverse operation, and ROLLBACK replays the log backwards.  This keeps
the hot path (bulk INSERT during profile load) allocation-light, which
matters for PerfDMF's 1.6M-datapoint trials.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import MutableMapping
from itertools import islice
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

from .ast_nodes import ColumnDef
from .errors import IntegrityError, OperationalError, ProgrammingError
from .types import coerce, sort_key

#: Sentinel marking a column omitted from an INSERT column list.  Unlike
#: an explicit NULL, an omitted column receives its DEFAULT (and NOT
#: NULL is checked after defaulting), matching standard SQL.
OMITTED = object()


@dataclass
class Column:
    """Schema entry for one table column."""

    name: str
    affinity: str
    not_null: bool = False
    primary_key: bool = False
    autoincrement: bool = False
    default: Any = None
    references: Optional[tuple[str, str]] = None

    @property
    def lower_name(self) -> str:
        return self.name.lower()


class Index:
    """A hash index over one or more columns.

    ``unique`` indexes reject duplicate non-NULL keys.  Keys containing a
    NULL are never considered duplicates (SQL UNIQUE semantics).
    """

    #: Access-method tag: ``"hash"`` (equality only) or ``"btree"`` (ordered).
    method = "hash"

    def __init__(self, name: str, table: "Table", columns: list[str], unique: bool):
        self.name = name
        self.table = table
        self.column_positions = [table.position_of(c) for c in columns]
        self.column_names = [table.columns[p].name for p in self.column_positions]
        self.unique = unique
        self.map: dict[tuple[Any, ...], set[int]] = {}
        #: Bulk-load suspension: while ``stale`` the index contents are
        #: untrustworthy — row mutations skip it and the planner must not
        #: consult it.  Cleared by ``rebuild()`` at the end of the batch.
        self.stale = False

    def key_for(self, row: list[Any]) -> tuple[Any, ...]:
        return tuple(row[p] for p in self.column_positions)

    def insert(self, rowid: int, row: list[Any]) -> None:
        key = self.key_for(row)
        bucket = self.map.get(key)
        if bucket is None:
            self.map[key] = {rowid}
            return
        if self.unique and None not in key and bucket:
            raise IntegrityError(
                f"UNIQUE constraint failed: "
                f"{self.table.name}({', '.join(self.column_names)})"
            )
        bucket.add(rowid)

    def check(self, row: list[Any]) -> None:
        """Raise if inserting ``row`` would violate uniqueness."""
        if not self.unique:
            return
        key = self.key_for(row)
        if None in key:
            return
        if self.map.get(key):
            raise IntegrityError(
                f"UNIQUE constraint failed: "
                f"{self.table.name}({', '.join(self.column_names)})"
            )

    def remove(self, rowid: int, row: list[Any]) -> None:
        key = self.key_for(row)
        bucket = self.map.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self.map[key]

    def lookup(self, key: tuple[Any, ...]) -> set[int]:
        return self.map.get(key, set())

    def rebuild(self) -> None:
        if self.unique:
            self.map.clear()
            for rowid, row in self.table.rows.items():
                self.insert(rowid, row)
            self.stale = False
            return
        # Non-unique rebuild is the bulk-load hot path (one pass at batch
        # end instead of N per-row inserts), so build the map with the
        # tightest loop available rather than going through insert().
        positions = self.column_positions
        rebuilt: defaultdict[tuple[Any, ...], set[int]] = defaultdict(set)
        if len(positions) == 1:
            position = positions[0]
            for rowid, row in self.table.rows.items():
                rebuilt[(row[position],)].add(rowid)
        else:
            getter = itemgetter(*positions)
            for rowid, row in self.table.rows.items():
                rebuilt[getter(row)].add(rowid)
        self.map = dict(rebuilt)  # plain dict: lookups must not grow it
        self.stale = False


class SortedIndex(Index):
    """An ordered index: the hash map plus a lazily-sorted key array.

    Equality probes and UNIQUE enforcement reuse the inherited hash map;
    range predicates and ``ORDER BY`` pushdown walk a parallel pair of
    lists — ordering keys (``sort_key`` tuples, totally ordered across
    NULL/number/text) and the raw keys they stand for.

    The array is maintained append-mostly: in-order inserts extend it
    directly, while out-of-order mutations merely mark it dirty and the
    next range scan re-sorts once from the hash map.  Bulk loads
    (PerfDMF's million-row profile imports) therefore stay O(n log n)
    overall instead of paying a per-row insertion sort.
    """

    method = "btree"

    def __init__(self, name: str, table: "Table", columns: list[str], unique: bool):
        super().__init__(name, table, columns, unique)
        self._okeys: list[tuple] = []  # ordering keys, sorted when clean
        self._keys: list[tuple[Any, ...]] = []  # raw keys, parallel to _okeys
        self._dirty = False

    @staticmethod
    def order_key(key: tuple[Any, ...]) -> tuple:
        return tuple(sort_key(value) for value in key)

    def insert(self, rowid: int, row: list[Any]) -> None:
        key = self.key_for(row)
        new_key = key not in self.map
        super().insert(rowid, row)
        if new_key:
            okey = self.order_key(key)
            self._okeys.append(okey)
            self._keys.append(key)
            if not self._dirty and len(self._okeys) > 1 and okey < self._okeys[-2]:
                self._dirty = True

    def remove(self, rowid: int, row: list[Any]) -> None:
        key = self.key_for(row)
        super().remove(rowid, row)
        if key not in self.map:
            # The array now holds a stale entry; purge lazily.
            self._dirty = True

    def rebuild(self) -> None:
        self._okeys.clear()
        self._keys.clear()
        self._dirty = False
        super().rebuild()
        if not self.unique and self.map:
            # The fast non-unique rebuild fills only the hash map; defer
            # the sorted arrays to the next range scan (lazy re-sort).
            self._dirty = True

    def _ensure_sorted(self) -> None:
        if not self._dirty:
            return
        pairs = sorted((self.order_key(key), key) for key in self.map)
        self._okeys = [okey for okey, _ in pairs]
        self._keys = [key for _, key in pairs]
        self._dirty = False

    def range_rowids(
        self,
        prefix: tuple[Any, ...] = (),
        lo: Optional[tuple[Any, bool]] = None,
        hi: Optional[tuple[Any, bool]] = None,
        descending: bool = False,
        include_null: bool = False,
    ) -> Iterator[int]:
        """Rowids whose key equals ``prefix`` on the leading columns and
        falls within ``lo``/``hi`` on the next column, in index order.

        ``lo``/``hi`` are ``(value, inclusive)`` pairs or ``None`` for
        unbounded.  NULLs in the bounded column are excluded unless
        ``include_null`` (SQL range predicates never match NULL; pure
        ORDER BY pushdown wants every row).

        Bound probes extend an ordering-key component with a trailing
        ``True``: tuples compare element-wise, so the extended probe
        sorts immediately after every entry sharing that component —
        an exclusive lower / inclusive upper bound without sentinels.
        """
        self._ensure_sorted()
        pre = self.order_key(prefix)
        if lo is not None:
            component = sort_key(lo[0])
            probe_lo = pre + ((component,) if lo[1] else (component + (True,),))
        elif include_null:
            probe_lo = pre
        else:
            probe_lo = pre + (sort_key(None) + (True,),)
        start = bisect_left(self._okeys, probe_lo)
        if hi is not None:
            component = sort_key(hi[0])
            probe_hi = pre + ((component + (True,),) if hi[1] else (component,))
            end = bisect_left(self._okeys, probe_hi, start)
        elif pre:
            probe_end = pre[:-1] + (pre[-1] + (True,),)
            end = bisect_left(self._okeys, probe_end, start)
        else:
            end = len(self._okeys)
        positions = range(start, end)
        for i in reversed(positions) if descending else positions:
            bucket = self.map.get(self._keys[i])
            if bucket:
                yield from sorted(bucket)


class Table:
    """One table: schema + row store + attached indexes."""

    #: Storage layout marker; :class:`ColumnTable` overrides to True.
    #: Kept as a plain attribute so WAL/dump code can test it without
    #: importing the columnar machinery.
    is_columnar = False

    def __init__(self, name: str, columns: list[Column]):
        self.name = name
        self.columns = columns
        self.rows: dict[int, list[Any]] = {}
        self.indexes: dict[str, Index] = {}
        self._positions = {c.lower_name: i for i, c in enumerate(columns)}
        self._next_rowid = 1
        self.last_autoincrement = 0
        #: Data-version counter: bumped on every row mutation and column
        #: addition.  Snapshot reads key their copy-on-write clones on
        #: (schema_version, version) to invalidate lazily.
        self.version = 0
        #: True while the table is inside an active bulk load (some of
        #: its secondary indexes may be suspended/stale).
        self.bulk_active = False
        # implicit unique index for single-column INTEGER PRIMARY KEY
        self._pk_positions = [
            i for i, c in enumerate(columns) if c.primary_key
        ]

    # -- schema ------------------------------------------------------------

    def position_of(self, column_name: str) -> int:
        try:
            return self._positions[column_name.lower()]
        except KeyError:
            raise OperationalError(
                f"table {self.name} has no column named {column_name}"
            ) from None

    def has_column(self, column_name: str) -> bool:
        return column_name.lower() in self._positions

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise OperationalError(
                f"duplicate column name: {column.name} in table {self.name}"
            )
        self.columns.append(column)
        self._positions[column.lower_name] = len(self.columns) - 1
        # Rebind rather than append in place: snapshot clones share row
        # lists with the live table (update_row already replaces lists),
        # so widening must produce fresh lists too.
        rows = self.rows
        for rowid, row in list(rows.items()):
            rows[rowid] = row + [column.default]
        self.version += 1

    # -- row operations ------------------------------------------------------

    def next_rowid(self) -> int:
        rowid = self._next_rowid
        self._next_rowid += 1
        return rowid

    def peek_rowid(self) -> int:
        """The rowid the next inserted row will receive (bulk watermark)."""
        return self._next_rowid

    def insert_row(self, row: list[Any]) -> int:
        """Validate constraints, apply affinity, store; returns rowid."""
        if len(row) != len(self.columns):
            raise ProgrammingError(
                f"table {self.name} has {len(self.columns)} columns but "
                f"{len(row)} values were supplied"
            )
        prepared = self._prepare(row)
        for index in self.indexes.values():
            if not index.stale:
                index.check(prepared)
        rowid = self.next_rowid()
        self.rows[rowid] = prepared
        for index in self.indexes.values():
            if not index.stale:
                index.insert(rowid, prepared)
        self.version += 1
        return rowid

    # -- bulk load -----------------------------------------------------------

    def suspend_secondary(self) -> int:
        """Enter bulk load: mark non-unique indexes stale.

        Stale indexes receive no per-row maintenance and must not be
        consulted by the planner; unique indexes stay live so constraint
        violations are still detected at the offending row.  Returns the
        number of indexes suspended.
        """
        suspended = 0
        for index in self.indexes.values():
            if not index.unique and not index.stale:
                index.stale = True
                suspended += 1
        self.bulk_active = True
        return suspended

    def finish_bulk(self) -> int:
        """Leave bulk load: rebuild every suspended index once.

        This is the single index-rebuild point that replaces N per-row
        inserts; returns the number of indexes rebuilt.
        """
        rebuilt = 0
        for index in self.indexes.values():
            if index.stale:
                index.rebuild()
                rebuilt += 1
        self.bulk_active = False
        return rebuilt

    def append_rows(self, rows: Iterable[list[Any]]) -> int:
        """Bulk append: same constraints as :meth:`insert_row`, but with
        per-cell work hoisted out of the per-row loop.

        Stale (suspended) indexes are skipped entirely.  The whole batch
        is first screened column-wise (:meth:`_prepare_batch`); when the
        live indexes are plain unique hash indexes whose batch keys are
        collision-free and NULL-free, index maintenance collapses to one
        dict update per index.  Any condition the fast paths cannot
        prove falls back to per-row handling, which raises at exactly
        the offending row.  Returns the number of rows appended.
        """
        batch = rows if isinstance(rows, list) else list(rows)
        if not batch:
            return 0
        width = len(self.columns)
        for row in batch:
            if len(row) != width:
                raise ProgrammingError(
                    f"table {self.name} has {width} columns but "
                    f"{len(row)} values were supplied"
                )
        live = [index for index in self.indexes.values() if not index.stale]
        prepared = self._prepare_batch(batch)
        if prepared is None:
            prepared = [self._prepare(list(row)) for row in batch]
        if all(index.unique and type(index) is Index for index in live):
            index_keys: list[tuple[Index, list[tuple[Any, ...]]]] = []
            provable = True
            for index in live:
                positions = index.column_positions
                if len(positions) == 1:
                    p = positions[0]
                    keys = [(row[p],) for row in prepared]
                else:
                    getter = itemgetter(*positions)
                    keys = list(map(getter, prepared))
                key_set = set(keys)
                if (
                    len(key_set) != len(keys)
                    or (index.map.keys() & key_set)
                    or any(None in k for k in keys)
                ):
                    provable = False  # collision or NULL key: go per-row
                    break
                index_keys.append((index, keys))
            if provable:
                start = self._next_rowid
                stop = start + len(prepared)
                self.rows.update(zip(range(start, stop), prepared))
                self._next_rowid = stop
                for index, keys in index_keys:
                    index.map.update(
                        (key, {rowid})
                        for key, rowid in zip(keys, range(start, stop))
                    )
                self.version += 1
                return len(prepared)
        store = self.rows
        count = 0
        for row in prepared:
            for index in live:
                index.check(row)
            rowid = self.next_rowid()
            store[rowid] = row
            for index in live:
                index.insert(rowid, row)
            count += 1
        self.version += 1
        return count

    def _prepare_batch(self, rows: list) -> Optional[list[list[Any]]]:
        """Column-screened batch prepare.

        When every value in a column already has exactly the Python type
        its affinity stores (int for INTEGER, float for REAL, str for
        TEXT), per-cell coercion, NULL handling, and default logic are
        all no-ops and the rows can be stored as-is.  Returns None when
        any column needs the per-row path (mixed types, NULLs, omitted
        values, other affinities).
        """
        columns = self.columns
        for i, column in enumerate(columns):
            kinds = set(map(type, [row[i] for row in rows]))
            affinity = column.affinity
            if affinity == "INTEGER":
                if kinds != {int}:
                    return None
            elif affinity == "REAL":
                if kinds != {float}:
                    return None
            elif affinity == "TEXT":
                if kinds != {str}:
                    return None
            else:
                return None
        if type(rows[0]) is not list:
            rows = [list(row) for row in rows]
        for position in self._pk_positions:
            if columns[position].affinity == "INTEGER":
                top = max(row[position] for row in rows)
                if top > self.last_autoincrement:
                    self.last_autoincrement = top
        return rows

    def _is_rowid_column(self, column: Column) -> bool:
        return column.autoincrement or (
            column.primary_key
            and column.affinity == "INTEGER"
            and len(self._pk_positions) == 1
        )

    def _prepare(self, row: list[Any]) -> list[Any]:
        prepared = list(row)
        for i, column in enumerate(self.columns):
            value = prepared[i]
            if value is OMITTED:
                if self._is_rowid_column(column):
                    value = self.last_autoincrement + 1
                elif column.default is not None:
                    value = column.default
                elif column.not_null:
                    raise IntegrityError(
                        f"NOT NULL constraint failed: {self.name}.{column.name}"
                    )
                else:
                    value = None
            elif value is None:
                # Explicit NULL: integer primary keys auto-assign (sqlite
                # semantics); NOT NULL columns reject it; defaults do NOT
                # apply.
                if self._is_rowid_column(column):
                    value = self.last_autoincrement + 1
                elif column.not_null:
                    raise IntegrityError(
                        f"NOT NULL constraint failed: {self.name}.{column.name}"
                    )
            if value is not None:
                value = coerce(value, column.affinity, f"{self.name}.{column.name}")
            if (
                column.affinity == "INTEGER"
                and column.primary_key
                and isinstance(value, int)
                and value > self.last_autoincrement
            ):
                self.last_autoincrement = value
            prepared[i] = value
        return prepared

    def delete_row(self, rowid: int) -> list[Any]:
        row = self.rows.pop(rowid)
        for index in self.indexes.values():
            if not index.stale:
                index.remove(rowid, row)
        self.version += 1
        return row

    def update_row(self, rowid: int, new_values: dict[int, Any]) -> list[Any]:
        """Apply ``{position: value}`` updates; returns the OLD row copy."""
        row = self.rows[rowid]
        old = list(row)
        candidate = list(row)
        for position, value in new_values.items():
            column = self.columns[position]
            if value is None and column.not_null:
                raise IntegrityError(
                    f"NOT NULL constraint failed: {self.name}.{column.name}"
                )
            if value is not None:
                value = coerce(value, column.affinity, f"{self.name}.{column.name}")
            candidate[position] = value
        for index in self.indexes.values():
            if index.stale:
                continue
            # Only re-check indexes whose key changed.
            if index.key_for(old) != index.key_for(candidate):
                index.remove(rowid, old)
                try:
                    index.check(candidate)
                except IntegrityError:
                    index.insert(rowid, old)
                    raise
                index.insert(rowid, candidate)
        self.rows[rowid] = candidate
        self.version += 1
        return old

    def restore_row(self, rowid: int, row: list[Any]) -> None:
        """Undo helper: put a deleted row back verbatim."""
        self.rows[rowid] = row
        for index in self.indexes.values():
            if not index.stale:
                index.insert(rowid, row)
        self.version += 1

    def apply_raw_update(self, rowid: int, pairs: Iterable[tuple[int, Any]]) -> None:
        """WAL-replay helper: overwrite cells without constraint checks.

        Indexes are not maintained — recovery rebuilds them wholesale
        afterwards.  Writing back through ``self.rows`` makes the update
        stick for column-store tables, whose row reads are materialised
        copies rather than the backing storage.
        """
        row = self.rows.get(rowid)
        if row is None:
            return
        # Build a fresh list instead of poking the stored one: snapshot
        # clones share row lists with the live store, and replica replay
        # runs this concurrently with pinned snapshot reads.
        row = list(row)
        for position, value in pairs:
            row[position] = value
        self.rows[rowid] = row
        self.version += 1

    def renumber(self, rowids: Sequence[int]) -> None:
        """Give the stored rows, in scan order, the rowids ``rowids``.

        Row values are not copied.  Indexes still hold the old rowids:
        the caller rebuilds them.
        """
        self.rows = dict(zip(rowids, self.rows.values()))
        self.version += 1

    def scan(self) -> Iterator[tuple[int, list[Any]]]:
        return iter(self.rows.items())

    def scan_batches(
        self,
        batch_size: int = 1024,
        positions: Optional[tuple[int, ...]] = None,
    ) -> Iterator[list]:
        """Yield rows in chunks for the compiled execution pipeline.

        With ``positions`` the scan projects each row down to just those
        columns (as a tuple) before handing it out — column-projection
        pushdown, so a ``SELECT stddev(exclusive)`` over a 10-column
        table never materialises the other 9 values.  Without it the
        chunks hold the stored row lists themselves; callers must not
        mutate them.
        """
        it = iter(self.rows.values())
        if positions is None:
            while True:
                chunk = list(islice(it, batch_size))
                if not chunk:
                    return
                yield chunk
        else:
            if len(positions) == 1:
                p = positions[0]

                def project(row: list[Any]) -> tuple:
                    return (row[p],)
            else:
                project = itemgetter(*positions)
            while True:
                chunk = [project(row) for row in islice(it, batch_size)]
                if not chunk:
                    return
                yield chunk

    def __len__(self) -> int:
        return len(self.rows)


class ColumnData:
    """Typed storage for one column of a :class:`ColumnTable`.

    Layout by affinity::

        INTEGER / BOOLEAN  -> kind "i": array('q') + NULL byte-map
        REAL               -> kind "f": array('d') + NULL byte-map
        TEXT               -> kind "t": plain list (str/None guaranteed
                                        by affinity coercion)
        anything else      -> kind "o": plain list, numeric purity
                                        tracked incrementally

    MiniSQL's lenient affinity rules mean an INTEGER column may legally
    hold a non-integral float or an unconvertible string; such values
    cannot live in the typed array, so they go into the ``exc`` escape
    hatch (slot -> value) and the column loses *purity*.  The vectorized
    execution paths only engage on pure columns; everything still reads
    and writes correctly through :meth:`get`/:meth:`set` either way.

    The NULL map is a byte-per-slot bytearray rather than a packed
    bitmap: in pure Python the 8x memory trade buys O(1) unshifted
    access, and a byte per row is still ~50x smaller than a boxed float.
    """

    __slots__ = ("kind", "data", "nulls", "null_count", "exc", "numeric_only")

    def __init__(self, affinity: str):
        if affinity in ("INTEGER", "BOOLEAN"):
            self.kind = "i"
            self.data: Any = array("q")
        elif affinity == "REAL":
            self.kind = "f"
            self.data = array("d")
        elif affinity == "TEXT":
            self.kind = "t"
            self.data = []
        else:
            self.kind = "o"
            self.data = []
        self.nulls = bytearray()
        self.null_count = 0
        self.exc: dict[int, Any] = {}
        self.numeric_only = True

    def __len__(self) -> int:
        return len(self.data)

    def copy(self) -> "ColumnData":
        """Slab-level copy for snapshot clones: typed arrays memcpy,
        NULL maps and escape hatches copy shallowly (values immutable)."""
        clone = ColumnData.__new__(ColumnData)
        clone.kind = self.kind
        if self.kind in ("i", "f"):
            clone.data = array(self.data.typecode, self.data)
        else:
            clone.data = list(self.data)
        clone.nulls = bytearray(self.nulls)
        clone.null_count = self.null_count
        clone.exc = dict(self.exc)
        clone.numeric_only = self.numeric_only
        return clone

    @property
    def pure(self) -> bool:
        """True when every stored value matches the vectorized fast-path
        contract: int/float/None for "i"/"f"/"o", str/None for "t"."""
        if self.kind == "t":
            return True
        if self.kind == "o":
            return self.numeric_only
        return not self.exc

    def append(self, value: Any) -> None:
        kind = self.kind
        if kind == "t":
            self.data.append(value)
            return
        if kind == "o":
            self.data.append(value)
            if (
                self.numeric_only
                and value is not None
                and not isinstance(value, (int, float))
            ):
                self.numeric_only = False
            return
        if value is None:
            self.data.append(0)
            self.nulls.append(1)
            self.null_count += 1
            return
        if kind == "i" and type(value) is int:
            try:
                self.data.append(value)
            except OverflowError:  # beyond 64-bit: keep the Python int
                self.exc[len(self.data)] = value
                self.data.append(0)
        elif kind == "f" and type(value) is float:
            self.data.append(value)
        else:
            self.exc[len(self.data)] = value
            self.data.append(0)
        self.nulls.append(0)

    def append_many(self, values: Iterable[Any]) -> None:
        values = values if isinstance(values, (list, tuple)) else list(values)
        kind = self.kind
        if kind == "t":
            self.data.extend(values)
            return
        if kind == "o":
            self.data.extend(values)
            if self.numeric_only:
                for value in values:
                    if value is not None and not isinstance(value, (int, float)):
                        self.numeric_only = False
                        break
            return
        start = len(self.nulls)
        clean = all(type(v) is int for v in values) if kind == "i" else all(
            type(v) is float for v in values
        )
        if clean:
            try:
                self.data.extend(values)
                self.nulls.extend(b"\x00" * len(values))
                return
            except OverflowError:
                del self.data[start:]  # roll back the partial extend
        for value in values:
            self.append(value)

    def get(self, slot: int) -> Any:
        if self.kind in ("t", "o"):
            return self.data[slot]
        if self.nulls[slot]:
            return None
        if self.exc:
            value = self.exc.get(slot, _MISSING)
            if value is not _MISSING:
                return value
        return self.data[slot]

    def set(self, slot: int, value: Any) -> None:
        kind = self.kind
        if kind == "t":
            self.data[slot] = value
            return
        if kind == "o":
            self.data[slot] = value
            if (
                self.numeric_only
                and value is not None
                and not isinstance(value, (int, float))
            ):
                self.numeric_only = False
            return
        if value is None:
            if not self.nulls[slot]:
                self.nulls[slot] = 1
                self.null_count += 1
            self.exc.pop(slot, None)
            return
        if self.nulls[slot]:
            self.nulls[slot] = 0
            self.null_count -= 1
        if kind == "i" and type(value) is int:
            try:
                self.data[slot] = value
                self.exc.pop(slot, None)
                return
            except OverflowError:
                pass
        elif kind == "f" and type(value) is float:
            self.data[slot] = value
            self.exc.pop(slot, None)
            return
        self.exc[slot] = value

    def gather(self, slots: Sequence[int]) -> Sequence[Any]:
        """The values at ``slots``, in that order, as a fresh sequence —
        the index-probe twin of :meth:`materialize`.

        A ``range`` (one ascending run, see :meth:`ColumnTable.slots_of`)
        is sliced unless the column has escape-hatch values or a NULL in
        the run: a typed column gives an ``array`` copy, which numpy
        reads unboxed, a TEXT or untyped column a list (those two keep
        neither escape hatch nor NULL map)."""
        data = self.data
        if type(slots) is range and not self.exc and (
            not self.null_count or self.nulls.find(1, slots.start, slots.stop) < 0
        ):
            return data[slots.start:slots.stop]
        out = [data[s] for s in slots]
        if self.kind in ("t", "o"):
            return out
        if self.exc:
            exc = self.exc
            out = [exc.get(s, v) for s, v in zip(slots, out)]
        if self.null_count:
            nulls = self.nulls
            out = [None if nulls[s] else v for s, v in zip(slots, out)]
        return out

    def materialize(self, live: bytearray, dead_count: int) -> list[Any]:
        """All live values in slot order, as a fresh list."""
        if self.kind in ("t", "o"):
            if not dead_count:
                return list(self.data)
            return [v for v, alive in zip(self.data, live) if alive]
        out = self.data.tolist()
        if self.exc:
            for slot, value in self.exc.items():
                out[slot] = value
        if self.null_count:
            out = [None if n else v for n, v in zip(self.nulls, out)]
        if dead_count:
            out = [v for v, alive in zip(out, live) if alive]
        return out


_MISSING = object()


class _ColumnRowsView(MutableMapping):
    """Dict-shaped facade over a :class:`ColumnTable`'s column store.

    Everything that treats ``table.rows`` as a ``{rowid: row}`` mapping —
    the undo log, WAL replay, checkpoint metadata, index rebuilds — works
    unchanged through this view.  Reads materialise fresh row lists;
    in-place mutation of a returned row does *not* write through (use
    ``view[rowid] = row`` or :meth:`Table.apply_raw_update`).
    """

    __slots__ = ("_t",)

    def __init__(self, table: "ColumnTable"):
        self._t = table

    def __len__(self) -> int:
        return len(self._t._slot_of)

    def __iter__(self) -> Iterator[int]:
        t = self._t
        if not t._dead_count:
            return iter(t._slot_rowids)
        return (r for r, alive in zip(t._slot_rowids, t._live) if alive)

    def __contains__(self, rowid: object) -> bool:
        return rowid in self._t._slot_of

    def __getitem__(self, rowid: int) -> list[Any]:
        t = self._t
        slot = t._slot_of[rowid]
        return [col.get(slot) for col in t._cols]

    def __setitem__(self, rowid: int, row: list[Any]) -> None:
        self._t._cstore(rowid, row)

    def __delitem__(self, rowid: int) -> None:
        self._t._cdelete(rowid)

    def pop(self, rowid: int, *default: Any) -> Any:
        try:
            return self._t._cdelete(rowid)
        except KeyError:
            if default:
                return default[0]
            raise

    def update(self, other=(), **kwargs) -> None:  # type: ignore[override]
        t = self._t
        pairs = list(other.items()) if hasattr(other, "items") else list(other)
        if pairs and not any(rowid in t._slot_of for rowid, _ in pairs):
            # Pure append (the bulk-load fast path): transpose once and
            # extend each column, instead of per-cell dispatch.
            base = len(t._slot_rowids)
            rowids = [rowid for rowid, _ in pairs]
            t._slot_rowids.extend(rowids)
            for offset, rowid in enumerate(rowids):
                t._slot_of[rowid] = base + offset
            t._live.extend(b"\x01" * len(rowids))
            for col, values in zip(t._cols, zip(*[row for _, row in pairs])):
                col.append_many(values)
        else:
            for rowid, row in pairs:
                t._cstore(rowid, row)
        for rowid, row in kwargs.items():
            t._cstore(rowid, row)

    def items(self):  # bulk: avoid per-key dict lookups
        return list(self._t.scan())

    def values(self):
        return [row for _, row in self._t.scan()]


class ColumnTable(Table):
    """Column-store table: per-column typed vectors instead of row lists.

    Scan order must match the row store's dict-insertion order exactly
    (delete + reinsert moves a row to the end), so rows live in
    append-ordered *slots* with tombstoned deletes; slots are only
    reclaimed by :meth:`_compact` once tombstones dominate.  The ``rows``
    attribute is a mapping view (:class:`_ColumnRowsView`) so every
    row-store consumer keeps working; hot paths (scan, batched scan,
    bulk append) are overridden with whole-column implementations.
    """

    is_columnar = True

    @property
    def rows(self):  # type: ignore[override]
        return self._view

    @rows.setter
    def rows(self, mapping) -> None:
        # Only Table.__init__ assigns (``self.rows = {}``): start empty.
        assert not mapping
        self._cols = [ColumnData(c.affinity) for c in self.columns]
        self._slot_rowids: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._live = bytearray()
        self._dead_count = 0
        self._view = _ColumnRowsView(self)

    # -- column-store internals ---------------------------------------------

    def _cstore_new(self, rowid: int, row: list[Any]) -> None:
        self._slot_of[rowid] = len(self._slot_rowids)
        self._slot_rowids.append(rowid)
        self._live.append(1)
        for col, value in zip(self._cols, row):
            col.append(value)

    def _cstore(self, rowid: int, row: list[Any]) -> None:
        slot = self._slot_of.get(rowid)
        if slot is None:
            self._cstore_new(rowid, row)
        else:
            for col, value in zip(self._cols, row):
                col.set(slot, value)

    def _cdelete(self, rowid: int) -> list[Any]:
        slot = self._slot_of.pop(rowid)  # KeyError on unknown rowid
        row = [col.get(slot) for col in self._cols]
        self._live[slot] = 0
        self._dead_count += 1
        if self._dead_count > 256 and self._dead_count > len(self._slot_of):
            self._compact()
        return row

    def _compact(self) -> None:
        """Drop tombstoned slots; live order (and thus scan order) is
        preserved, so this is invisible to every reader."""
        pairs = list(self.scan())
        self._cols = [ColumnData(c.affinity) for c in self.columns]
        self._slot_rowids = []
        self._slot_of = {}
        self._live = bytearray()
        self._dead_count = 0
        for rowid, row in pairs:
            self._cstore_new(rowid, row)

    def renumber(self, rowids: Sequence[int]) -> None:
        """Rewrite the slot directory; the column slabs stay as they are.

        Only a table without deleted slots (one just bulk-appended) can
        be renumbered this way.
        """
        assert not self._dead_count
        self._slot_rowids = list(rowids)
        self._slot_of = {rowid: slot for slot, rowid in enumerate(rowids)}
        self.version += 1

    def _live_rowids(self) -> list[int]:
        if not self._dead_count:
            return list(self._slot_rowids)
        return [r for r, alive in zip(self._slot_rowids, self._live) if alive]

    @property
    def live_count(self) -> int:
        return len(self._slot_of)

    def column_values(self, position: int) -> list[Any]:
        """One whole column (live rows, scan order) for vectorized
        execution."""
        return self._cols[position].materialize(self._live, self._dead_count)

    def column_pure(self, position: int) -> bool:
        return self._cols[position].pure

    def slots_of(self, rowids: Iterable[int]) -> Sequence[int]:
        """The slots holding ``rowids``, in the same order: a ``range``
        when they form one ascending run (a trial's rows appended in one
        bulk load), so that every column is sliced instead of gathered
        slot by slot; a list otherwise."""
        slots = list(map(self._slot_of.__getitem__, rowids))
        if slots:
            run = range(slots[0], slots[-1] + 1)
            if len(run) == len(slots) and slots == list(run):
                return run
        return slots

    def column_gather(self, position: int, slots: Sequence[int]) -> Sequence[Any]:
        """One column's values at ``slots`` (see :meth:`slots_of`)."""
        return self._cols[position].gather(slots)

    def check_columns(self) -> list[str]:
        """Internal column-store invariants for ``PRAGMA integrity_check``:
        every column aligned to the slot count, tombstone accounting
        consistent, and the rowid<->slot maps mutual inverses."""
        problems: list[str] = []
        n_slots = len(self._slot_rowids)
        if len(self._live) != n_slots:
            problems.append(
                f"{self.name}: live map covers {len(self._live)} slots, "
                f"expected {n_slots}"
            )
        for column, col in zip(self.columns, self._cols):
            if len(col.data) != n_slots:
                problems.append(
                    f"{self.name}.{column.name}: column holds "
                    f"{len(col.data)} slots, expected {n_slots}"
                )
            if col.kind in ("i", "f"):
                if len(col.nulls) != n_slots:
                    problems.append(
                        f"{self.name}.{column.name}: NULL map covers "
                        f"{len(col.nulls)} slots, expected {n_slots}"
                    )
                elif col.null_count != sum(col.nulls):
                    problems.append(
                        f"{self.name}.{column.name}: null_count "
                        f"{col.null_count} != {sum(col.nulls)} NULL slots"
                    )
        dead = n_slots - len(self._slot_of)
        if self._dead_count != dead:
            problems.append(
                f"{self.name}: dead_count {self._dead_count} != "
                f"{dead} tombstoned slots"
            )
        if len(self._live) == n_slots and sum(
            1 for alive in self._live if not alive
        ) != dead:
            problems.append(
                f"{self.name}: live map disagrees with the slot directory"
            )
        for rowid, slot in self._slot_of.items():
            if (
                slot >= n_slots
                or self._slot_rowids[slot] != rowid
                or not self._live[slot]
            ):
                problems.append(
                    f"{self.name}: slot directory entry for rowid {rowid} "
                    f"is broken"
                )
                break
        return problems

    # -- overridden row operations -------------------------------------------

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise OperationalError(
                f"duplicate column name: {column.name} in table {self.name}"
            )
        self.columns.append(column)
        self._positions[column.lower_name] = len(self.columns) - 1
        col = ColumnData(column.affinity)
        # Slot-aligned backfill: tombstoned slots get the default too.
        for _ in range(len(self._slot_rowids)):
            col.append(column.default)
        self._cols.append(col)
        self.version += 1

    def scan(self) -> Iterator[tuple[int, list[Any]]]:
        mats = [col.materialize(self._live, self._dead_count) for col in self._cols]
        rowids = self._live_rowids()
        if len(mats) == 1:
            return zip(rowids, ([v] for v in mats[0]))
        return zip(rowids, map(list, zip(*mats)))

    def scan_batches(
        self,
        batch_size: int = 1024,
        positions: Optional[tuple[int, ...]] = None,
    ) -> Iterator[list]:
        """Columnar batched scan: materialise only the requested columns,
        then zip them into row tuples chunk by chunk.

        Chunking happens *after* tombstone compression, so a batch
        boundary can never land inside a deleted-row run and drop or
        short-change a chunk (the tail edge case pinned by
        ``tests/db/test_scan_batches.py``).
        """
        if positions is None:
            mats = [
                col.materialize(self._live, self._dead_count) for col in self._cols
            ]
        else:
            mats = [
                self._cols[p].materialize(self._live, self._dead_count)
                for p in positions
            ]
        it = zip(*mats) if len(mats) > 1 else zip(mats[0])
        while True:
            chunk = list(islice(it, batch_size))
            if not chunk:
                return
            yield chunk

    def __len__(self) -> int:
        return len(self._slot_of)


class Database:
    """Top-level catalog: tables, indexes, foreign keys, undo log.

    The undo log stores plain tuples rather than closures — at PerfDMF
    bulk-load scale (millions of inserts inside one transaction) the
    per-record allocation cost of a lambda is measurable.
    Record shapes::

        ("ins", table, rowid)              # undo: delete the row
        ("del", table, rowid, row)         # undo: restore the row
        ("upd", table, rowid, positions)   # undo: re-apply old values
        ("bulk", table, watermark)         # undo: drop rowids >= watermark
        ("mk_table", key)                  # undo: remove created table
        ("rm_table", key, table)           # undo: re-attach dropped table

    In bulk-load mode a single ``bulk`` record per table per transaction
    replaces one ``ins`` record per row: every bulk-appended row has a
    rowid at or above the recorded watermark, so rollback deletes that
    rowid range and stays all-or-nothing without per-row bookkeeping.
    """

    #: Access-path counters surfaced through ``Connection.stats()``.
    _STAT_KEYS = (
        "rows_scanned", "rows_via_index", "full_scans",
        "index_eq_probes", "index_range_scans", "order_pushdowns",
        "bulk_loads", "bulk_rows", "bulk_index_rebuilds",
        "plan_cache_hits", "plan_cache_misses", "compile_fallbacks",
        "vector_selects", "vector_fallbacks", "probe_where_discharged",
        "columnar_conversions",
        "snapshot_selects", "snapshot_refreshes", "snapshot_table_clones",
        "snapshot_stale_serves",
    )

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.index_owner: dict[str, str] = {}  # index name -> table name
        self.foreign_keys: dict[str, list[tuple[list[str], str, list[str]]]] = {}
        self.in_transaction = False
        self._undo: list[tuple] = []
        #: Monotonic catalog generation.  Any DDL (create/drop/rename
        #: table, create/drop index, ADD COLUMN, or a rollback that undoes
        #: one) bumps it; compiled plans are keyed on it, so a stale plan
        #: — compiled against old column offsets — can never be served.
        self.schema_version = 0
        #: When True, newly created tables use columnar storage
        #: (``PRAGMA columnar(on/off)`` with no table name).
        self.columnar_default = False
        self.stats: dict[str, int] = {key: 0 for key in self._STAT_KEYS}
        self.bulk_mode = False
        #: Tables whose secondary indexes are suspended for the current
        #: bulk load; rebuilt once in :meth:`end_bulk`.
        self._bulk_tables: set[Table] = set()
        #: Per-transaction first-bulk-rowid watermarks backing the
        #: ``bulk`` undo records; cleared at commit/rollback.
        self._bulk_txn_tables: dict[Table, int] = {}
        # Serialises writers on shared databases: a connection holds this
        # for the duration of its transaction (sqlite's database lock).
        self.txn_lock = __import__("threading").Lock()
        #: Attached write-ahead log for file-backed databases (see
        #: :mod:`~repro.db.minisql.wal`); None for in-memory databases.
        #: Duck-typed so this module never imports the WAL machinery.
        self.wal = None
        #: Monotonic transaction ids for WAL records; 0 is reserved for
        #: auto-committed operations.
        self._txn_seq = 0
        self._txn_id = 0
        #: Attached :class:`~repro.db.minisql.snapshot.SnapshotManager`
        #: when ``PRAGMA snapshot_isolation(on)`` is active; None
        #: otherwise.  Duck-typed so this module never imports the
        #: snapshot machinery.
        self.snapshot_mgr = None
        #: Slow-query threshold in milliseconds (``PRAGMA slow_query_ms``);
        #: None disables statement timing entirely.
        self.slow_query_ms: Optional[float] = None
        #: Most recent slow statements: {"sql", "plan", "duration_ms"}.
        self.slow_queries: "deque[dict]" = deque(maxlen=256)

    def reset_stats(self) -> None:
        for key in self._STAT_KEYS:
            self.stats[key] = 0

    # -- catalog --------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise OperationalError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def create_table(self, name: str, columns: list[Column]) -> Table:
        key = name.lower()
        if key in self.tables:
            raise OperationalError(f"table {name} already exists")
        seen: set[str] = set()
        for column in columns:
            if column.lower_name in seen:
                raise OperationalError(f"duplicate column name: {column.name}")
            seen.add(column.lower_name)
        table_cls = ColumnTable if self.columnar_default else Table
        table = table_cls(name, columns)
        self.tables[key] = table
        self.schema_version += 1
        if self.in_transaction:
            self._undo.append(("mk_table", key))
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        table = self.table(name)
        for index_name in list(table.indexes):
            self.index_owner.pop(index_name.lower(), None)
        del self.tables[key]
        self.foreign_keys.pop(key, None)
        self.schema_version += 1
        if self.in_transaction:
            self._undo.append(("rm_table", key, table))

    def rename_table(self, name: str, new_name: str) -> None:
        key = name.lower()
        new_key = new_name.lower()
        if new_key in self.tables:
            raise OperationalError(f"table {new_name} already exists")
        table = self.table(name)
        del self.tables[key]
        table.name = new_name
        self.tables[new_key] = table
        for index_name, owner in list(self.index_owner.items()):
            if owner == key:
                self.index_owner[index_name] = new_key
        self.schema_version += 1

    def set_table_storage(self, name: str, columnar: bool) -> bool:
        """Switch one table between row and columnar layout in place.

        Rowids, scan order, autoincrement state, and every index are
        preserved; the swap bumps ``schema_version`` so cached compiled
        plans (which may bake in vectorized sections) are invalidated.
        Returns False when the table is already in the requested layout.
        Callers must reject mid-transaction / mid-bulk conversions; this
        method only performs the swap.
        """
        key = name.lower()
        table = self.table(name)
        if table.is_columnar == bool(columnar):
            return False
        if table.bulk_active:
            raise OperationalError(
                f"cannot change storage of {table.name} during a bulk load"
            )
        table_cls = ColumnTable if columnar else Table
        replacement = table_cls(table.name, table.columns)
        store = replacement.rows
        for rowid, row in table.scan():
            store[rowid] = list(row)
        replacement._next_rowid = table._next_rowid
        replacement.last_autoincrement = table.last_autoincrement
        for index_key, index in table.indexes.items():
            clone = type(index)(
                index.name, replacement, list(index.column_names), index.unique
            )
            clone.rebuild()
            replacement.indexes[index_key] = clone
        self.tables[key] = replacement
        self.schema_version += 1
        self.stats["columnar_conversions"] += 1
        return True

    def create_index(
        self, name: str, table_name: str, columns: list[str], unique: bool,
        using: str = "hash",
    ) -> Index:
        key = name.lower()
        if key in self.index_owner:
            raise OperationalError(f"index {name} already exists")
        table = self.table(table_name)
        index_cls = SortedIndex if using == "btree" else Index
        index = index_cls(name, table, columns, unique)
        index.rebuild()
        table.indexes[key] = index
        self.index_owner[key] = table_name.lower()
        self.schema_version += 1
        if self.in_transaction:
            self._undo.append(("mk_index", key, table_name.lower()))
        return index

    def drop_index(self, name: str) -> None:
        key = name.lower()
        owner = self.index_owner.pop(key, None)
        if owner is None:
            raise OperationalError(f"no such index: {name}")
        table = self.tables.get(owner)
        if table is not None:
            table.indexes.pop(key, None)
        self.schema_version += 1

    def register_foreign_keys(
        self, table_name: str, specs: list[tuple[list[str], str, list[str]]]
    ) -> None:
        self.foreign_keys.setdefault(table_name.lower(), []).extend(specs)

    # -- write-ahead logging ----------------------------------------------------

    def wal_log(self, op: str, *args: Any) -> None:
        """Append one logical record to the attached WAL, if any.

        Inside a transaction the record carries the transaction id and
        durability waits for the commit barrier; outside, it is tagged
        as auto-committed (txn 0) and flushed immediately.
        """
        wal = self.wal
        if wal is None:
            return
        if self.in_transaction:
            wal.append(op, self._txn_id, *args)
        else:
            wal.append(op, 0, *args)
            wal.barrier()
            if wal.should_checkpoint():
                wal.checkpoint(self)

    # -- transactional mutation -------------------------------------------------

    def begin(self) -> None:
        if self.in_transaction:
            raise OperationalError("cannot start a transaction within a transaction")
        self.in_transaction = True
        self._undo.clear()
        if self.wal is not None:
            self._txn_seq += 1
            self._txn_id = self._txn_seq
            self.wal.log_begin(self._txn_id)

    def commit(self) -> None:
        was_transaction = self.in_transaction
        self.in_transaction = False
        self._undo.clear()
        self._bulk_txn_tables.clear()
        wal = self.wal
        if wal is not None and was_transaction:
            wal.log_commit(self._txn_id)
            if wal.should_checkpoint():
                wal.checkpoint(self)

    def rollback(self) -> None:
        if not self.in_transaction:
            self._undo.clear()
            self._bulk_txn_tables.clear()
            return
        if self.wal is not None:
            # Logged before the undo replay so a crash mid-rollback still
            # finds the record; recovery discards the txn either way.
            self.wal.log_rollback(self._txn_id)
        undid_ddl = False
        for record in reversed(self._undo):
            op = record[0]
            if op == "ins":
                record[1].delete_row(record[2])
            elif op == "bulk":
                table, watermark = record[1], record[2]
                for rowid in [r for r in table.rows if r >= watermark]:
                    table.delete_row(rowid)
            elif op == "del":
                record[1].restore_row(record[2], record[3])
            elif op == "upd":
                record[1].update_row(record[2], record[3])
            elif op == "mk_table":
                undid_ddl = True
                self.tables.pop(record[1], None)
                # purge index registrations owned by the undone table
                for index_name, owner in list(self.index_owner.items()):
                    if owner == record[1]:
                        del self.index_owner[index_name]
                self.foreign_keys.pop(record[1], None)
            elif op == "rm_table":
                undid_ddl = True
                self.tables[record[1]] = record[2]
                table = record[2]
                for index_name in table.indexes:
                    self.index_owner[index_name] = record[1]
            elif op == "mk_index":
                undid_ddl = True
                index_name, owner = record[1], record[2]
                self.index_owner.pop(index_name, None)
                table = self.tables.get(owner)
                if table is not None:
                    table.indexes.pop(index_name, None)
        if undid_ddl:
            self.schema_version += 1
        self._undo.clear()
        self._bulk_txn_tables.clear()
        self.in_transaction = False

    # -- bulk load -----------------------------------------------------------

    def begin_bulk(self) -> None:
        """Enter bulk-load mode (``PRAGMA bulk_load(on)``).

        Tables are suspended lazily at their first bulk insert, so the
        mode costs nothing for tables the batch never touches.
        """
        if self.bulk_mode:
            return
        self.bulk_mode = True
        self.stats["bulk_loads"] += 1

    def end_bulk(self) -> None:
        """Leave bulk-load mode (``PRAGMA bulk_load(off)``): rebuild each
        suspended index exactly once from the loaded rows."""
        if not self.bulk_mode:
            return
        self.bulk_mode = False
        for table in self._bulk_tables:
            self.stats["bulk_index_rebuilds"] += table.finish_bulk()
        self._bulk_tables.clear()

    @contextmanager
    def bulk_load(self) -> Iterator["Database"]:
        """Scoped bulk-load mode; indexes are rebuilt on exit even when
        the body raises (rollback is the caller's responsibility)."""
        self.begin_bulk()
        try:
            yield self
        finally:
            self.end_bulk()

    def _enter_bulk_table(self, table: Table) -> None:
        if table not in self._bulk_tables:
            table.suspend_secondary()
            self._bulk_tables.add(table)
        if self.in_transaction and table not in self._bulk_txn_tables:
            watermark = table.peek_rowid()
            self._bulk_txn_tables[table] = watermark
            self._undo.append(("bulk", table, watermark))

    def bulk_insert_rows(self, table: Table, rows: Iterable[list[Any]]) -> int:
        """Append a batch under bulk mode; one undo record, no per-row
        index upkeep on suspended indexes.  Returns rows appended."""
        self._enter_bulk_table(table)
        start = table.peek_rowid()
        try:
            count = table.append_rows(rows)
        finally:
            if self.wal is not None:
                # Bulk appends are rowid-contiguous from the watermark, so
                # one record covers the batch.  Logging the landed count
                # (not the requested one) keeps the WAL honest when a
                # constraint fails mid-batch: the rows that made it into
                # the store are exactly the rows logged.
                landed = table.peek_rowid() - start
                if landed:
                    self.wal_log(
                        "bmany", table.name, start,
                        [table.rows[r] for r in range(start, start + landed)],
                    )
        self.stats["bulk_rows"] += count
        return count

    def insert(self, table: Table, row: list[Any]) -> int:
        if self.bulk_mode:
            self._enter_bulk_table(table)
            rowid = table.insert_row(row)
            self.stats["bulk_rows"] += 1
            if self.wal is not None:
                self.wal_log("ins", table.name, rowid, table.rows[rowid])
            return rowid
        rowid = table.insert_row(row)
        if self.in_transaction:
            self._undo.append(("ins", table, rowid))
        if self.wal is not None:
            # Log the stored (coerced/defaulted) row, not the input row.
            self.wal_log("ins", table.name, rowid, table.rows[rowid])
        return rowid

    def delete(self, table: Table, rowid: int) -> None:
        row = table.delete_row(rowid)
        if self.in_transaction:
            self._undo.append(("del", table, rowid, row))
        if self.wal is not None:
            self.wal_log("del", table.name, rowid)

    def update(self, table: Table, rowid: int, new_values: dict[int, Any]) -> None:
        old = table.update_row(rowid, new_values)
        if self.in_transaction:
            self._undo.append(("upd", table, rowid, {i: old[i] for i in new_values}))
        if self.wal is not None:
            row = table.rows[rowid]
            self.wal_log(
                "upd", table.name, rowid,
                [(position, row[position]) for position in new_values],
            )

"""SQL dump and restore for MiniSQL databases.

MiniSQL is an in-memory engine; persistence follows sqlite's ``.dump``
model — serialise the catalog and every row as portable SQL text, and
restore by executing the script.  Because the dump is plain SQL in the
shared dialect, a MiniSQL archive restores into sqlite (and vice versa),
which doubles as yet another engine-portability check.

:func:`restore_dump` is the inverse of :func:`dump_database_sql` that
archive recovery uses: rows in exactly the shape the writer emits are
decoded by a literal scanner and bulk-appended, everything else goes
through the parser and executor.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Any, Iterator, Optional

#: Marker for the machine-readable trailer the WAL checkpoint appends to
#: a dump.  sqlite (and ``load_database``) skip it as a comment; MiniSQL
#: recovery reads the original rowid numbering back out of it.
META_PREFIX = "-- minisql-meta: "


def dump_sql(connection) -> Iterator[str]:
    """Yield SQL statements reconstructing the connection's database.

    Accepts either an engine ``Connection`` or a bare storage
    ``Database`` (duck-typed, so the WAL checkpoint path can dump
    without importing the engine front end).
    """
    yield from dump_database_sql(getattr(connection, "_database", connection))


def dump_database_sql(database) -> Iterator[str]:
    """Yield SQL statements reconstructing ``database`` (storage-level)."""
    yield "BEGIN;"
    for table in database.tables.values():
        yield _create_table_sql(table, database)
        columns = ", ".join(c.name for c in table.columns)
        for _rowid, row in sorted(table.scan()):
            values = ", ".join(_render_value(v) for v in row)
            yield f"INSERT INTO {table.name} ({columns}) VALUES ({values});"
    for index_name, owner in database.index_owner.items():
        if index_name.startswith("__"):
            continue  # implicit PK/UNIQUE indexes are recreated by DDL
        table = database.tables.get(owner)
        if table is None:
            continue
        index = table.indexes[index_name]
        unique = "UNIQUE " if index.unique else ""
        columns = ", ".join(index.column_names)
        # The USING {HASH|BTREE} clause is deliberately dropped: dumps
        # must restore into sqlite unchanged.  The checkpoint trailer
        # records the method for archive recovery; a plain
        # load_database into MiniSQL builds hash indexes (results stay
        # identical; only range-scan acceleration is lost).
        yield (
            f"CREATE {unique}INDEX {index.name} ON {table.name} ({columns});"
        )
    yield "COMMIT;"


def _create_table_sql(table, database) -> str:
    pk_columns = [c.name for c in table.columns if c.primary_key]
    composite = len(pk_columns) > 1
    # UNIQUE constraints survive as their implicit indexes: ``__uq_*``
    # for a column constraint, ``__uqc_*`` for a table constraint.
    unique_columns = set()
    unique_constraints = []
    for name, index in table.indexes.items():
        if name.startswith("__uq_"):
            unique_columns.add(index.column_names[0].lower())
        elif name.startswith("__uqc_"):
            unique_constraints.append(", ".join(index.column_names))
    parts = []
    for column in table.columns:
        bits = [column.name, column.affinity]
        if column.primary_key and not composite:
            bits.append("PRIMARY KEY")
            if column.autoincrement:
                bits.append("AUTOINCREMENT")
        elif column.not_null:
            bits.append("NOT NULL")
        if column.lower_name in unique_columns:
            bits.append("UNIQUE")
        if column.default is not None:
            bits.append(f"DEFAULT {_render_value(column.default)}")
        if column.references is not None:
            ref_table, ref_column = column.references
            bits.append(f"REFERENCES {ref_table}({ref_column})")
        parts.append(" ".join(bits))
    if composite:
        # sqlite rejects repeated inline PRIMARY KEY markers; a composite
        # key must be a single table-level constraint.
        parts.append(f"PRIMARY KEY ({', '.join(pk_columns)})")
    parts.extend(f"UNIQUE ({columns})" for columns in unique_constraints)
    return f"CREATE TABLE {table.name} ({', '.join(parts)});"


#: What _render_value writes for NaN.
_NAN_LITERAL = "(1e999-1e999)"

#: repr() of a non-finite float is inf/nan, which SQL reads as a column
#: name.  Both engines read 1e999 as +Inf; Inf-Inf is NaN in MiniSQL and
#: NULL in sqlite, which is what sqlite stores for a NaN.
_NON_FINITE = {"inf": "1e999", "-inf": "-1e999", "nan": _NAN_LITERAL}


def _render_value(value: Any) -> str:
    # Only quotes need escaping: restores scan quoted literals whole
    # (never line filtering), so control characters — newlines, carriage
    # returns, text resembling comments or keywords — ride inside the
    # quoted literal byte-for-byte.
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        text = repr(value)
        return _NON_FINITE.get(text, text)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def checkpoint_meta(database, last_lsn: int) -> dict:
    """The recovery trailer for a checkpoint of ``database``.

    Restoring a dump renumbers rows sequentially (INSERT order), so the
    trailer records each table's original rowids — in the sorted order
    the dump emits them — plus the rowid/autoincrement high-water marks.
    ``last_lsn`` marks how much of the WAL the checkpoint already
    contains; recovery skips records at or below it.
    """
    tables = {}
    for key, table in database.tables.items():
        entry = {
            "rowids": sorted(table.rows),
            "next_rowid": table._next_rowid,
            "last_autoincrement": table.last_autoincrement,
        }
        # The SQL body of a dump is deliberately storage-agnostic (a
        # columnar table dumps byte-identically to a row table); the
        # trailer alone carries the storage mode across a recovery.
        if getattr(table, "is_columnar", False):
            entry["columnar"] = True
        tables[key] = entry
    meta: dict[str, Any] = {"last_lsn": last_lsn, "tables": tables}
    # Likewise the access method: the body drops USING so that sqlite
    # can load it, and a restore without this map builds hash indexes.
    methods = {
        index.name: index.method
        for table in database.tables.values()
        for index in table.indexes.values()
        if index.method != "hash"
    }
    if methods:
        meta["index_methods"] = methods
    return meta


def render_meta(meta: dict) -> str:
    return META_PREFIX + json.dumps(meta, separators=(",", ":"))


def parse_meta(script: str) -> Optional[dict]:
    """Extract the checkpoint trailer from a dump script, if present."""
    for line in reversed(script.splitlines()):
        line = line.strip()
        if line.startswith(META_PREFIX):
            return json.loads(line[len(META_PREFIX):])
        if line and not line.startswith("--"):
            return None
    return None


#: Rows appended per ``Table.append_rows`` call during a restore.
_RESTORE_BATCH = 4096

# The scanner's patterns are ASCII-only, like the lexer: it reads no
# Unicode digits or spaces the parser would reject.

#: Whitespace and comments between statements.
_GAP = re.compile(r"(?:\s+|--[^\n]*|/\*.*?\*/)*", re.S | re.A)

#: One statement, up to and including its ``;``: quoted text and
#: comments may hold semicolons.
_STATEMENT = re.compile(
    r"""(?:[^;'"/-]+|'[^']*(?:''[^']*)*'|"[^"]*(?:""[^"]*)*"|--[^\n]*"""
    r"""|/\*.*?\*/|[/-])*;?""",
    re.S,
)

#: The head of a dump row: ``INSERT INTO t (c1, c2) VALUES (``.
_ROW_HEAD = re.compile(r"INSERT INTO (\w+) \(([\w, ]*)\) VALUES \(", re.A)

#: One literal as _render_value writes it, then its separator.  The
#: groups are text, integer and real; a match with none of them is NULL.
_LITERAL = re.compile(
    r"(?:'([^']*(?:''[^']*)*)'"
    r"|(-?\d+)"
    r"|(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|" + re.escape(_NAN_LITERAL) + r")"
    r"|NULL)"
    r"(, |\);)",
    re.A,
)


def _scan_row(script: str, pos: int) -> tuple[list[Any], int]:
    """Decode the literals of a dump row from just after ``VALUES (``.

    Returns the values and the offset just past the closing ``);``, or
    an empty list when a literal is not in a form _render_value writes.
    Each value is the one the parser and expression evaluator produce
    for the same literal.
    """
    row: list[Any] = []
    match = _LITERAL.match
    while True:
        m = match(script, pos)
        if m is None:
            return [], pos
        text, integer, real, separator = m.groups()
        if text is not None:
            row.append(text.replace("''", "'"))
        elif integer is not None:
            row.append(int(integer))
        elif real is not None:
            row.append(math.nan if real == _NAN_LITERAL else float(real))
        else:
            row.append(None)
        pos = m.end()
        if separator == ");":
            return row, pos


def restore_dump(database, script: str, meta: Optional[dict]) -> tuple[int, int]:
    """Load a dump script into the empty storage-level ``database``.

    A row in exactly the shape :func:`dump_database_sql` writes — all
    columns, in table order, as literals — is decoded by
    :func:`_scan_row` and appended in per-table batches through
    ``Table.append_rows``, which applies the same coercion and NOT
    NULL/UNIQUE checks as a single-row INSERT.  Every other statement
    (DDL, transaction framing, rows the scanner rejects) is parsed and
    executed one at a time.

    With the checkpoint trailer ``meta``, a table the trailer marks
    columnar is switched while still empty, indexes get their recorded
    access method, and each table's rowids, next rowid and
    autoincrement mark are restored.  Returns ``(rows restored,
    statements parsed)``.
    """
    from .ast_nodes import (
        BeginTransaction, CommitTransaction, CreateIndex, CreateTable,
        RollbackTransaction,
    )
    from .executor import Executor
    from .parser import parse

    table_meta = (meta or {}).get("tables", {})
    methods = (meta or {}).get("index_methods", {})
    executor = None
    statements = 0
    # (table name, column list) of a row head -> its Table when the list
    # is the table's full column list, else None; cleared after every
    # parsed statement, since DDL can change both.
    targets: dict[tuple[str, str], Any] = {}
    batch: list[list[Any]] = []
    batch_table = None

    def flush() -> None:
        if batch:
            batch_table.append_rows(batch)
            batch.clear()

    pos = _GAP.match(script).end()
    end = len(script)
    while pos < end:
        head = _ROW_HEAD.match(script, pos)
        if head is not None:
            key = head.group(1, 2)
            if key not in targets:
                table = database.tables.get(key[0].lower())
                if table is not None and key[1] != ", ".join(table.column_names):
                    table = None
                targets[key] = table
            table = targets[key]
            if table is not None:
                row, stop = _scan_row(script, head.end())
                if len(row) == len(table.columns):
                    if table is not batch_table or len(batch) >= _RESTORE_BATCH:
                        flush()
                        batch_table = table
                    batch.append(row)
                    pos = _GAP.match(script, stop).end()
                    continue
        flush()
        stop = _STATEMENT.match(script, pos).end()
        if stop == pos or (stop < end and script[stop - 1] != ";"):
            stop = end  # unterminated text: let the parser report it
        for statement in parse(script[pos:stop]):
            statements += 1
            if isinstance(
                statement,
                (BeginTransaction, CommitTransaction, RollbackTransaction),
            ):
                continue
            if isinstance(statement, CreateIndex):
                statement.using = methods.get(statement.name, statement.using)
            if executor is None:
                executor = Executor(database)
            executor.execute(statement)
            if isinstance(statement, CreateTable) and table_meta.get(
                statement.table.lower(), {}
            ).get("columnar"):
                database.set_table_storage(statement.table, True)
        targets.clear()
        pos = _GAP.match(script, stop).end()
    flush()
    for key, entry in table_meta.items():
        table = database.tables.get(key)
        if table is None:
            continue
        rowids = entry.get("rowids", [])
        # The dump emits rows in sorted-rowid order and the restore
        # numbered them 1..n in that same order.
        if len(rowids) == len(table) and rowids != list(table.rows):
            table.renumber(rowids)
            for index in table.indexes.values():
                index.rebuild()
        table._next_rowid = max(
            int(entry.get("next_rowid", 1)), table._next_rowid
        )
        table.last_autoincrement = max(
            int(entry.get("last_autoincrement", 0)), table.last_autoincrement
        )
    return sum(len(table) for table in database.tables.values()), statements


def save_database(connection, path: str | os.PathLike) -> Path:
    """Write the database to ``path`` as a SQL script.

    ``newline=""`` disables newline translation so a ``\\r`` inside a
    TEXT value lands in the file verbatim (and survives the matching
    untranslated read in :func:`load_database`).
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("-- MiniSQL dump\n")
        for statement in dump_sql(connection):
            fh.write(statement + "\n")
    return out


def load_database(connection, path: str | os.PathLike) -> int:
    """Execute a dump script into ``connection``; returns statement count.

    The whole script goes through the engine's tokenizer — which skips
    comments and keeps string literals intact — rather than any
    line-based filtering, so values containing newlines, ``--``, or
    transaction keywords restore exactly.  The target database should
    be empty (restores do not merge).
    """
    from .parser import parse

    with open(path, "r", encoding="utf-8", newline="") as fh:
        script = fh.read()
    connection.executescript(script)
    return len(parse(script))

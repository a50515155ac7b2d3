"""Statement execution for MiniSQL.

The executor runs parsed statements against a
:class:`~repro.db.minisql.storage.Database`.  SELECT execution is a
straightforward pipeline — scan → join → filter → group → having →
project → distinct → compound → order → limit — whose sections are
closures, compiled where :mod:`~repro.db.minisql.compile` lowers the
section's expression and interpreted where it does not
(:meth:`Executor._section`).  Two optimisations matter at PerfDMF scale:

* **index pushdown**: top-level equality predicates in WHERE whose column
  has a hash index turn the base-table scan into an index probe; range
  predicates (``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``) and
  ``ORDER BY ... LIMIT`` route through ordered (``USING BTREE``) indexes;
* **hash joins**: equi-join conditions build a hash table on the inner
  relation instead of running a nested loop.

Access-path selection lives in :func:`_plan_access`; ``EXPLAIN`` reports
its choice and ``Database.stats`` counts rows per path.  Both
optimisations are exercised by the E7 ablation benchmarks.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.obs.metrics import registry as _metrics

from .ast_nodes import (
    AlterTableAddColumn, AlterTableRename, BeginTransaction, Between,
    BinaryOp, ColumnDef, ColumnRef, CommitTransaction, CreateIndex,
    CreateTable, Delete, DropIndex, DropTable, Expression, FunctionCall,
    InList, Insert, Literal, OrderItem, Placeholder, Pragma,
    RollbackTransaction, Select, SelectItem, Star, Statement, Subquery,
    TableRef, Update,
)
from .compile import (
    _VS, CompactPlan, DMLPlan, GroupPlan, JoinPlan, SelectPlan, VectorPlan,
    compile_expr, try_vcompile,
)
from .dump import _create_table_sql, _render_value
from .errors import (
    IntegrityError, NotSupportedError, OperationalError, ProgrammingError,
)
from .expr import (
    RowContext, _maybe_number, column_refs, contains_aggregate, evaluate,
    is_aggregate_call, ref_name, truthy, walk,
)
from .functions import make_aggregate
from .storage import Column, Database, Index, OMITTED, SortedIndex, Table
from .types import sort_key

# Process-global compile telemetry (mirrors the per-Database stats keys;
# the registry survives connection churn, the stats dict travels with
# ``Connection.stats()``).
_PLAN_HITS = _metrics.counter("minisql.compile.plan_cache_hits")
_PLAN_MISSES = _metrics.counter("minisql.compile.plan_cache_misses")
_COMPILE_FALLBACKS = _metrics.counter("minisql.compile.fallbacks")
_COMPILE_SECONDS = _metrics.histogram("minisql.compile.seconds")
# Columnar / vectorized execution telemetry.
_VECTOR_SELECTS = _metrics.counter("minisql.columnar.vector_selects")
_VECTOR_FALLBACKS = _metrics.counter("minisql.columnar.vector_fallbacks")
_COLUMNAR_CONVERSIONS = _metrics.counter("minisql.columnar.conversions")


class ResultColumns:
    """A vector plan's rows, held as one sequence per result column.

    Iterating yields the row tuples; :attr:`ResultSet.column_values`
    hands the columns out without building them.
    """

    __slots__ = ("values",)

    def __init__(self, values: list[Sequence[Any]]):
        self.values = values

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return zip(*self.values)


class ResultSet:
    """Execution result: column names plus row tuples (possibly empty).

    ``rows`` may be given as :class:`ResultColumns`; they are zipped into
    tuples the first time :attr:`rows` is read.
    """

    __slots__ = ("columns", "_rows", "rowcount", "lastrowid")

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple[Any, ...]] | ResultColumns,
        rowcount: int = -1,
        lastrowid: Optional[int] = None,
    ):
        self.columns = columns
        self._rows = rows
        self.rowcount = rowcount
        self.lastrowid = lastrowid

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        if type(self._rows) is ResultColumns:
            self._rows = list(self._rows)
        return self._rows

    @property
    def column_values(self) -> Optional[list[Sequence[Any]]]:
        """The columns of rows that arrived as :class:`ResultColumns` and
        were never read as rows; None otherwise."""
        rows = self._rows
        return rows.values if type(rows) is ResultColumns else None


class _AnalyzeProbe:
    """Per-statement row/time collector backing ``EXPLAIN ANALYZE``.

    ``wrap`` inserts a counting pass-through around a pipeline stage's
    iterator; time is *inclusive* of everything upstream of the stage
    (each wrapper times the ``next()`` call into the pipeline below it).
    Only the Select node the probe targets is instrumented, so
    materialised IN-subqueries and compound arms don't pollute the
    top-level step counts.
    """

    def __init__(self, target: Optional[Select]):
        self.target = target
        self.steps: dict[str, dict[str, float]] = {}

    def wrap(self, label: str, iterator: Iterator[Any]) -> Iterator[Any]:
        entry = self.steps.setdefault(label, {"rows": 0, "time": 0.0})

        def counted() -> Iterator[Any]:
            it = iter(iterator)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    entry["time"] += time.perf_counter() - t0
                    return
                entry["time"] += time.perf_counter() - t0
                entry["rows"] += 1
                yield item

        return counted()


class Executor:
    """Executes statements against one :class:`Database`."""

    def __init__(self, database: Database):
        self.database = database
        #: Active ``EXPLAIN ANALYZE`` probe, if any (see _AnalyzeProbe).
        self._probe: Optional[_AnalyzeProbe] = None

    # ------------------------------------------------------------------ API --

    def execute(self, statement: Statement, params: Sequence[Any] = ()) -> ResultSet:
        if isinstance(statement, Select):
            columns, rows = self._execute_select(statement, params)
            return ResultSet(columns, rows, rowcount=-1)
        if isinstance(statement, Insert):
            return self._execute_insert(statement, params)
        if isinstance(statement, Update):
            return self._execute_update(statement, params)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, params)
        if isinstance(statement, CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, AlterTableAddColumn):
            return self._execute_alter_add(statement)
        if isinstance(statement, AlterTableRename):
            self.database.rename_table(statement.table, statement.new_name)
            self.database.wal_log(
                "ddl",
                f"ALTER TABLE {statement.table} RENAME TO {statement.new_name};",
            )
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, BeginTransaction):
            self.database.begin()
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, CommitTransaction):
            self.database.commit()
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, RollbackTransaction):
            self.database.rollback()
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, Pragma):
            return self._execute_pragma(statement)
        from .ast_nodes import Explain

        if isinstance(statement, Explain):
            return self._execute_explain(statement, params)
        raise NotSupportedError(f"unsupported statement {type(statement).__name__}")

    def _execute_explain(self, stmt, params: Sequence[Any]) -> ResultSet:
        """Describe the strategy for a statement.

        Output mirrors sqlite's ``EXPLAIN QUERY PLAN`` spirit: one row
        per plan step — scan strategy for the base table, join strategy
        per joined table, grouping/ordering notes.  ``EXPLAIN ANALYZE``
        additionally executes the statement and annotates each step
        with actual rows produced and wall time.
        """
        if getattr(stmt, "analyze", False):
            return self._execute_explain_analyze(stmt, params)
        steps = self._explain_steps(stmt.statement, params)
        rows = [
            (i, detail, compiled, vectorized)
            for i, (detail, _label, compiled, vectorized) in enumerate(steps)
        ]
        return ResultSet(["id", "detail", "compiled", "vectorized"], rows)

    def _explain_steps(
        self, inner: Statement, params: Sequence[Any], analyze: bool = False
    ) -> list[tuple[str, Optional[str], Optional[str], Optional[str]]]:
        """Plan-step (description, analyze-probe label, compiled,
        vectorized) tuples.

        The "WHERE filter" step only appears under ``analyze`` — plain
        EXPLAIN keeps its historical sqlite-like shape (access path,
        joins, group/order) that tests and tooling match exactly.
        ``compiled`` is "no" for a step with an interpreted section
        (the access-path step: for a statement that runs any), "yes"
        otherwise, None where the notion does not apply (CROSS JOIN,
        compound glue, DML, constant rows); ``vectorized`` is the same
        for the whole-column plan — it reports plan *capability*, since
        the vector path can still yield to the row engine at run time
        (impure column, empty table, mid-flight error).
        """
        steps: list[tuple[str, Optional[str], Optional[str], Optional[str]]] = []
        if isinstance(inner, Select) and inner.table is not None:
            table = self.database.table(inner.table.name)
            conjuncts = _conjuncts(inner.where) if not inner.joins else []
            order_by = inner.order_by if _can_push_order(inner) else []
            plan = _plan_access(
                table, inner.table.effective_name, conjuncts, order_by,
                params, _select_alias_names(inner),
            )
            try:
                splan = self._select_plan(inner)
            except Exception:
                splan = None
            # An ordered index walk streams through the row path (so an
            # ORDER BY ... LIMIT stops early); the vector plan never runs.
            vector = (
                splan.vector
                if splan is not None and not plan.ordered else None
            )

            def flag(*sections: Any) -> str:
                return "no" if splan is None or _count_interpreted(*sections) else "yes"

            def vflag(section_vectorized: bool) -> str:
                return "yes" if vector is not None and section_vectorized else "no"

            # The access step sums up the statement as it runs, which is
            # with each IN (SELECT ...) list turned into literals (see
            # _execute_select_core); the other steps describe their
            # sections as written.
            where = _replace_subqueries(
                inner.where, lambda _subquery: [Literal(None)]
            )
            runs = splan
            if where is not inner.where:
                try:
                    runs = self._build_select_plan(
                        _copy_select_with_where(inner, where)
                    )
                except Exception:
                    runs = None
            steps.append((
                plan.describe(table), "scan",
                "yes" if runs is not None and not runs.fallbacks else "no",
                "yes" if runs is not None and runs.vector is not None
                and not plan.ordered else "no",
            ))
            layout = _Layout.build(self.database, inner)
            offset = len(table.columns)
            for i, join in enumerate(inner.joins):
                inner_table = self.database.table(join.table.name)
                if join.kind == "CROSS" or join.condition is None:
                    steps.append(
                        (f"CROSS JOIN {inner_table.name}", f"join{i}", None, None)
                    )
                else:
                    equi = _find_equi_key(
                        join.condition, layout, offset, len(inner_table.columns)
                    )
                    strategy = (
                        "HASH JOIN" if equi is not None else "NESTED LOOP JOIN"
                    )
                    steps.append((
                        f"{strategy} {inner_table.name} ({join.kind})",
                        f"join{i}",
                        flag(splan and splan.joins[i]),
                        vflag(False),
                    ))
                offset += len(inner_table.columns)
            if analyze and inner.where is not None:
                steps.append((
                    "WHERE filter", "where",
                    flag(splan and splan.where_fn),
                    vflag(vector is not None and vector.where_fn is not None),
                ))
            if inner.group_by or any(
                contains_aggregate(item.expr) for item in inner.items
            ):
                steps.append((
                    "GROUP BY (hash aggregation)", None,
                    flag(splan and splan.grouped),
                    vflag(vector is not None and vector.kind == "agg"),
                ))
            if inner.order_by:
                steps.append((
                    "ORDER BY (index order)" if plan.ordered
                    else "ORDER BY (sort)",
                    None,
                    flag(splan and (
                        splan.grouped if splan.is_grouped
                        else [splan.proj, splan.order_specs]
                    )),
                    vflag(vector is not None),
                ))
            if inner.compound is not None:
                steps.append((f"COMPOUND {inner.compound[0]}", None, None, None))
        elif isinstance(inner, Select):
            steps.append(("CONSTANT ROW (no FROM)", None, None, None))
        else:
            steps.append((type(inner).__name__.upper(), None, None, None))
        return steps

    def _execute_explain_analyze(self, stmt, params: Sequence[Any]) -> ResultSet:
        inner = stmt.statement
        probe = _AnalyzeProbe(inner if isinstance(inner, Select) else None)
        previous = self._probe
        self._probe = probe
        t0 = time.perf_counter()
        try:
            result = self.execute(inner, params)
        finally:
            self._probe = previous
        total_ms = (time.perf_counter() - t0) * 1000.0
        # Steps are planned after execution so DDL/DML analyze still
        # reflects post-statement catalog state; planning charges no
        # stats counters, so the numbers stay pure.
        steps = self._explain_steps(inner, params, analyze=True)
        rows: list[tuple[Any, ...]] = []
        for i, (detail, label, compiled, vectorized) in enumerate(steps):
            info = probe.steps.get(label) if label is not None else None
            rows.append((
                i,
                detail,
                int(info["rows"]) if info is not None else None,
                round(info["time"] * 1000.0, 3) if info is not None else None,
                compiled,
                vectorized,
            ))
        cardinality = len(result.rows) if result.columns else result.rowcount
        rows.append(
            (len(rows), "RESULT", cardinality, round(total_ms, 3), None, None)
        )
        return ResultSet(
            ["id", "detail", "rows", "time_ms", "compiled", "vectorized"], rows
        )

    # ------------------------------------------------------------------ DDL --

    def _execute_create_table(self, stmt: CreateTable) -> ResultSet:
        if self.database.has_table(stmt.table):
            if stmt.if_not_exists:
                return ResultSet([], [], rowcount=0)
            raise OperationalError(f"table {stmt.table} already exists")
        columns: list[Column] = []
        table_pk = {name.lower() for name in stmt.primary_key}
        for cdef in stmt.columns:
            default = None
            if cdef.default is not None:
                default = evaluate(cdef.default, None, ())
            columns.append(
                Column(
                    name=cdef.name,
                    affinity=cdef.type_name,
                    not_null=cdef.not_null or cdef.name.lower() in table_pk,
                    primary_key=cdef.primary_key or cdef.name.lower() in table_pk,
                    autoincrement=cdef.autoincrement,
                    default=default,
                    references=cdef.references,
                )
            )
        table = self.database.create_table(stmt.table, columns)
        pk_columns = [c.name for c in columns if c.primary_key]
        if pk_columns:
            self.database.create_index(
                f"__pk_{stmt.table.lower()}", stmt.table, pk_columns, unique=True
            )
        for i, cdef in enumerate(stmt.columns):
            if cdef.unique and not cdef.primary_key:
                self.database.create_index(
                    f"__uq_{stmt.table.lower()}_{cdef.name.lower()}",
                    stmt.table, [cdef.name], unique=True,
                )
        for j, unique_cols in enumerate(stmt.unique_constraints):
            self.database.create_index(
                f"__uqc_{stmt.table.lower()}_{j}", stmt.table, unique_cols, unique=True
            )
        fk_specs = [
            (spec.columns, spec.ref_table, spec.ref_columns)
            for spec in stmt.foreign_keys
        ]
        for cdef in stmt.columns:
            if cdef.references is not None:
                fk_specs.append(([cdef.name], cdef.references[0], [cdef.references[1]]))
        if fk_specs:
            self.database.register_foreign_keys(stmt.table, fk_specs)
        # DDL is logged as SQL text (the dump renderer reconstructs it, as
        # the original statement string is not available here); replay
        # re-executes it, recreating the implicit PK/UNIQUE indexes too.
        self.database.wal_log("ddl", _create_table_sql(table, self.database))
        return ResultSet([], [], rowcount=0)

    def _execute_drop_table(self, stmt: DropTable) -> ResultSet:
        if not self.database.has_table(stmt.table):
            if stmt.if_exists:
                return ResultSet([], [], rowcount=0)
            raise OperationalError(f"no such table: {stmt.table}")
        self.database.drop_table(stmt.table)
        self.database.wal_log("ddl", f"DROP TABLE {stmt.table};")
        return ResultSet([], [], rowcount=0)

    def _execute_create_index(self, stmt: CreateIndex) -> ResultSet:
        if stmt.name.lower() in self.database.index_owner:
            if stmt.if_not_exists:
                return ResultSet([], [], rowcount=0)
            raise OperationalError(f"index {stmt.name} already exists")
        self.database.create_index(
            stmt.name, stmt.table, stmt.columns, stmt.unique, using=stmt.using
        )
        unique = "UNIQUE " if stmt.unique else ""
        using = " USING BTREE" if stmt.using == "btree" else ""
        self.database.wal_log(
            "ddl",
            f"CREATE {unique}INDEX {stmt.name} ON {stmt.table} "
            f"({', '.join(stmt.columns)}){using};",
        )
        return ResultSet([], [], rowcount=0)

    def _execute_drop_index(self, stmt: DropIndex) -> ResultSet:
        if stmt.name.lower() not in self.database.index_owner:
            if stmt.if_exists:
                return ResultSet([], [], rowcount=0)
            raise OperationalError(f"no such index: {stmt.name}")
        self.database.drop_index(stmt.name)
        self.database.wal_log("ddl", f"DROP INDEX {stmt.name};")
        return ResultSet([], [], rowcount=0)

    def _execute_alter_add(self, stmt: AlterTableAddColumn) -> ResultSet:
        table = self.database.table(stmt.table)
        cdef = stmt.column
        default = evaluate(cdef.default, None, ()) if cdef.default is not None else None
        if cdef.not_null and default is None:
            raise OperationalError(
                "cannot add a NOT NULL column without a default value"
            )
        table.add_column(
            Column(
                name=cdef.name,
                affinity=cdef.type_name,
                not_null=cdef.not_null,
                default=default,
                references=cdef.references,
            )
        )
        # Row width changed: every compiled plan's offsets are stale.
        self.database.schema_version += 1
        bits = [cdef.name, cdef.type_name]
        if cdef.not_null:
            bits.append("NOT NULL")
        if default is not None:
            bits.append(f"DEFAULT {_render_value(default)}")
        if cdef.references is not None:
            bits.append(f"REFERENCES {cdef.references[0]}({cdef.references[1]})")
        self.database.wal_log(
            "ddl", f"ALTER TABLE {stmt.table} ADD COLUMN {' '.join(bits)};"
        )
        return ResultSet([], [], rowcount=0)

    def _execute_pragma(self, stmt: Pragma) -> ResultSet:
        if stmt.name == "table_info":
            if not stmt.argument:
                raise ProgrammingError("PRAGMA table_info requires a table name")
            if not self.database.has_table(stmt.argument):
                return ResultSet([], [])  # sqlite yields no rows here
            table = self.database.table(stmt.argument)
            columns = ["cid", "name", "type", "notnull", "dflt_value", "pk"]
            rows = [
                (
                    i, c.name, c.affinity, int(c.not_null), c.default,
                    int(c.primary_key),
                )
                for i, c in enumerate(table.columns)
            ]
            return ResultSet(columns, rows)
        if stmt.name == "table_list":
            columns = ["name", "nrows"]
            rows = [(t.name, len(t)) for t in self.database.tables.values()]
            return ResultSet(columns, rows)
        if stmt.name == "index_list":
            if not stmt.argument:
                raise ProgrammingError("PRAGMA index_list requires a table name")
            table = self.database.table(stmt.argument)
            columns = ["name", "unique", "columns"]
            rows = [
                (idx.name, int(idx.unique), ",".join(idx.column_names))
                for idx in table.indexes.values()
            ]
            return ResultSet(columns, rows)
        if stmt.name == "bulk_load":
            argument = str(stmt.argument or "").strip().lower()
            if argument in ("on", "1", "true"):
                self.database.begin_bulk()
            elif argument in ("off", "0", "false"):
                self.database.end_bulk()
            elif argument == "status":
                return ResultSet(
                    ["bulk_load"], [(int(self.database.bulk_mode),)]
                )
            else:
                raise ProgrammingError(
                    f"PRAGMA bulk_load expects on/off, got {stmt.argument!r}"
                )
            # on/off return no rows, matching sqlite (which ignores the
            # pragma entirely) so differential corpora stay comparable.
            return ResultSet([], [], rowcount=0)
        if stmt.name == "slow_query_ms":
            if stmt.argument is None:
                return ResultSet(
                    ["slow_query_ms"], [(self.database.slow_query_ms,)]
                )
            argument = str(stmt.argument).strip().lower()
            if argument in ("off", "none", ""):
                self.database.slow_query_ms = None
            else:
                try:
                    self.database.slow_query_ms = float(argument)
                except ValueError:
                    raise ProgrammingError(
                        "PRAGMA slow_query_ms expects a number or off, "
                        f"got {stmt.argument!r}"
                    )
            return ResultSet([], [], rowcount=0)
        if stmt.name == "slow_query_log":
            argument = str(stmt.argument or "").strip().lower()
            if argument == "clear":
                self.database.slow_queries.clear()
                return ResultSet([], [], rowcount=0)
            columns = ["sql", "plan", "duration_ms"]
            rows = [
                (entry["sql"], entry["plan"], entry["duration_ms"])
                for entry in self.database.slow_queries
            ]
            return ResultSet(columns, rows)
        if stmt.name == "synchronous":
            wal = self.database.wal
            if stmt.argument is None:
                value = wal.synchronous if wal is not None else "off"
                return ResultSet(["synchronous"], [(value,)])
            argument = str(stmt.argument).strip().lower()
            argument = {"0": "off", "1": "normal", "2": "full"}.get(
                argument, argument
            )
            if argument not in ("off", "normal", "full"):
                raise ProgrammingError(
                    "PRAGMA synchronous expects off/normal/full, "
                    f"got {stmt.argument!r}"
                )
            if wal is not None:
                wal.synchronous = argument
            return ResultSet([], [], rowcount=0)
        if stmt.name == "checkpoint":
            wal = self.database.wal
            if wal is None:
                return ResultSet(["checkpoint"], [(0,)])
            if self.database.in_transaction:
                raise OperationalError("cannot checkpoint inside a transaction")
            # Hold the writer lock so the dump sees a consistent catalog
            # even while autocommit writers run on other connections.
            with self.database.txn_lock:
                wal.checkpoint(self.database)
            return ResultSet(["checkpoint"], [(1,)])
        if stmt.name == "wal_autocheckpoint":
            wal = self.database.wal
            if stmt.argument is None:
                value = wal.autocheckpoint_bytes if wal is not None else None
                return ResultSet(["wal_autocheckpoint"], [(value,)])
            argument = str(stmt.argument).strip().lower()
            if wal is not None:
                if argument in ("off", "none", "0"):
                    wal.autocheckpoint_bytes = None
                else:
                    try:
                        wal.autocheckpoint_bytes = int(argument)
                    except ValueError:
                        raise ProgrammingError(
                            "PRAGMA wal_autocheckpoint expects a byte count "
                            f"or off, got {stmt.argument!r}"
                        )
            return ResultSet([], [], rowcount=0)
        if stmt.name == "wal_status":
            wal = self.database.wal
            columns = ["key", "value"]
            if wal is None:
                return ResultSet(columns, [("enabled", 0)])
            rows = [("enabled", 1)]
            rows.extend(sorted(wal.status().items()))
            return ResultSet(columns, rows)
        if stmt.name == "integrity_check":
            problems = self._integrity_check()
            rows = [(p,) for p in problems] if problems else [("ok",)]
            return ResultSet(["integrity_check"], rows)
        if stmt.name == "snapshot_isolation":
            return self._pragma_snapshot_isolation(stmt)
        if stmt.name == "columnar":
            return self._pragma_columnar(stmt)
        # Unknown pragmas are silently ignored, like sqlite.
        return ResultSet([], [], rowcount=0)

    _ON = ("on", "1", "true")
    _OFF = ("off", "0", "false")

    def _pragma_snapshot_isolation(self, stmt: Pragma) -> ResultSet:
        """``PRAGMA snapshot_isolation(on|off|status)`` — MVCC reads.

        While on, SELECTs outside an explicit transaction run against a
        pinned copy-on-write snapshot (see
        :mod:`~repro.db.minisql.snapshot`) and never interact with the
        database writer lock.
        """
        from . import snapshot as _snapshot

        argument = str(stmt.argument or "status").strip().lower()
        if argument in self._ON:
            _snapshot.enable(self.database)
        elif argument in self._OFF:
            _snapshot.disable(self.database)
        elif argument == "status":
            mgr = self.database.snapshot_mgr
            if mgr is None:
                return ResultSet(["key", "value"], [("enabled", 0)])
            rows = [
                (key, value)
                for key, value in sorted(mgr.status().items())
                if key != "enabled"
            ]
            return ResultSet(["key", "value"], [("enabled", 1)] + rows)
        else:
            raise ProgrammingError(
                "PRAGMA snapshot_isolation expects on/off/status, "
                f"got {stmt.argument!r}"
            )
        return ResultSet([], [], rowcount=0)

    def _pragma_columnar(self, stmt: Pragma) -> ResultSet:
        """``PRAGMA columnar`` — per-table storage-mode control.

        Forms: ``columnar(status)`` lists every table's mode;
        ``columnar(on|off)`` sets the default for *future* CREATE TABLE;
        ``columnar(<table> status)`` reports one table;
        ``columnar(<table> on|off)`` converts the table in place
        (rejected mid-transaction and during a bulk load — conversion
        swaps the storage object, which the undo log cannot unwind).
        """
        database = self.database
        parts = str(stmt.argument or "").strip().split()
        if not parts or (len(parts) == 1 and parts[0].lower() == "status"):
            rows = [
                (t.name, int(t.is_columnar))
                for t in database.tables.values()
            ]
            return ResultSet(["table", "columnar"], rows)
        first = parts[0].lower()
        if len(parts) == 1 and first in self._ON + self._OFF:
            database.columnar_default = first in self._ON
            return ResultSet([], [], rowcount=0)
        if len(parts) == 2:
            name, action = parts[0], parts[1].lower()
            if action == "status":
                table = database.table(name)
                return ResultSet(
                    ["table", "columnar"], [(table.name, int(table.is_columnar))]
                )
            if action in self._ON + self._OFF:
                if database.in_transaction:
                    raise OperationalError(
                        "cannot change table storage inside a transaction"
                    )
                changed = database.set_table_storage(name, action in self._ON)
                if changed:
                    _COLUMNAR_CONVERSIONS.inc()
                    wal = database.wal
                    if wal is not None:
                        # Persist the new mode: the WAL stream itself is
                        # storage-agnostic, so only a checkpoint trailer
                        # records which tables are columnar.  Mid-load
                        # that waits for the next checkpoint, at the
                        # latest the close.
                        wal.note_trailer_change()
                        if not database.bulk_mode:
                            with database.txn_lock:
                                wal.checkpoint(database)
                return ResultSet([], [], rowcount=0)
        raise ProgrammingError(
            "PRAGMA columnar expects status, on/off, or <table> on/off/"
            f"status, got {stmt.argument!r}"
        )

    def _integrity_check(self) -> list[str]:
        """Cross-check every live index against the row store.

        The crash-recovery tests run this after reopening a killed
        archive: recovery rebuilds indexes from replayed rows, so any
        divergence here means replay and the row store disagree.
        """
        problems: list[str] = []
        for table in self.database.tables.values():
            if getattr(table, "is_columnar", False):
                problems.extend(table.check_columns())
            width = len(table.columns)
            bad_rows = False
            for rowid, row in table.rows.items():
                if len(row) != width:
                    problems.append(
                        f"{table.name}: row {rowid} has {len(row)} values, "
                        f"expected {width}"
                    )
                    bad_rows = True
            if bad_rows:
                continue
            for index in table.indexes.values():
                if index.stale:
                    continue
                expected: dict[tuple, set[int]] = {}
                for rowid, row in table.rows.items():
                    expected.setdefault(index.key_for(row), set()).add(rowid)
                if index.map != expected:
                    problems.append(
                        f"index {index.name} on {table.name} is inconsistent "
                        f"with the row store"
                    )
                if index.unique:
                    for key, bucket in expected.items():
                        if None not in key and len(bucket) > 1:
                            problems.append(
                                f"index {index.name} on {table.name}: "
                                f"duplicate key {key!r}"
                            )
        return problems

    # ------------------------------------------------------------------ DML --

    def _execute_insert(self, stmt: Insert, params: Sequence[Any]) -> ResultSet:
        table = self.database.table(stmt.table)
        if stmt.columns:
            positions = [table.position_of(c) for c in stmt.columns]
        else:
            positions = list(range(len(table.columns)))
        count = 0
        lastrowid = None
        source_rows: Iterable[Sequence[Any]]
        if stmt.select is not None:
            _, select_rows = self._execute_select(stmt.select, params)
            source_rows = select_rows
        else:
            source_rows = [
                [evaluate(expr, None, params) for expr in row_exprs]
                for row_exprs in stmt.rows
            ]
        for values in source_rows:
            if len(values) != len(positions):
                raise ProgrammingError(
                    f"{len(positions)} columns but {len(values)} values"
                )
            row: list[Any] = [OMITTED] * len(table.columns)
            for position, value in zip(positions, values):
                row[position] = value
            self.database.insert(table, row)
            lastrowid = table.last_autoincrement or lastrowid
            count += 1
        return ResultSet([], [], rowcount=count, lastrowid=lastrowid)

    def execute_insert_batch(
        self, stmt: Insert, seq_of_params: Iterable[Sequence[Any]]
    ) -> ResultSet:
        """Fast path for ``executemany`` on a single-row VALUES insert.

        The per-row work reduces to evaluating the VALUES expressions
        (usually bare placeholders) and one ``insert_row`` call; statement
        dispatch, column-position lookup and transaction checks happen
        once for the whole batch.
        """
        if stmt.select is not None or len(stmt.rows) != 1:
            raise ProgrammingError(
                "executemany requires a single-row VALUES insert"
            )
        table = self.database.table(stmt.table)
        if stmt.columns:
            positions = [table.position_of(c) for c in stmt.columns]
        else:
            positions = list(range(len(table.columns)))
        row_exprs = stmt.rows[0]
        if len(row_exprs) != len(positions):
            raise ProgrammingError(
                f"{len(positions)} columns but {len(row_exprs)} values"
            )
        # Common case: every value is a bare placeholder in order.
        all_placeholders = all(
            isinstance(e, Placeholder) and e.index == i
            for i, e in enumerate(row_exprs)
        )
        width = len(table.columns)
        database = self.database
        count = 0
        if all_placeholders:
            expected = len(positions)

            def build_rows() -> Iterator[list[Any]]:
                for params in seq_of_params:
                    if len(params) != expected:
                        raise ProgrammingError(
                            f"{expected} placeholders but {len(params)} parameters"
                        )
                    row: list[Any] = [OMITTED] * width
                    for position, value in zip(positions, params):
                        row[position] = value
                    yield row

            if database.bulk_mode:
                # Bulk-load batch append: one undo watermark for the whole
                # batch, suspended secondary indexes untouched per row.
                if positions == list(range(width)):
                    # Full-width in-order insert: the parameter tuples
                    # already ARE the rows; append_rows width-checks and
                    # copies them, so skip per-row assembly entirely.
                    batch = (
                        seq_of_params
                        if isinstance(seq_of_params, list)
                        else list(seq_of_params)
                    )
                    count = database.bulk_insert_rows(table, batch)
                else:
                    count = database.bulk_insert_rows(table, build_rows())
            else:
                for row in build_rows():
                    database.insert(table, row)
                    count += 1
        else:
            for params in seq_of_params:
                row = [OMITTED] * width
                for position, expr in zip(positions, row_exprs):
                    row[position] = evaluate(expr, None, tuple(params))
                database.insert(table, row)
                count += 1
        return ResultSet(
            [], [], rowcount=count, lastrowid=table.last_autoincrement or None
        )

    def _execute_update(self, stmt: Update, params: Sequence[Any]) -> ResultSet:
        table = self.database.table(stmt.table)
        where_fn, plan = self._dml_where(stmt, table, params)
        touched = []
        for rowid, row in list(table.scan()):
            if where_fn is not None and not truthy(where_fn(row, params, None)):
                continue
            touched.append((rowid, {
                position: fn(row, params, None) for position, fn in plan.assign_fns
            }))
        for rowid, new_values in touched:
            self.database.update(table, rowid, new_values)
        return ResultSet([], [], rowcount=len(touched))

    def _execute_delete(self, stmt: Delete, params: Sequence[Any]) -> ResultSet:
        table = self.database.table(stmt.table)
        where_fn, _plan = self._dml_where(stmt, table, params)
        doomed = [
            rowid for rowid, row in table.scan()
            if where_fn is None or truthy(where_fn(row, params, None))
        ]
        for rowid in doomed:
            self.database.delete(table, rowid)
        return ResultSet([], [], rowcount=len(doomed))

    def _dml_where(
        self, stmt: Statement, table: Table, params: Sequence[Any]
    ) -> tuple[Optional[Any], DMLPlan]:
        """The WHERE closure an UPDATE/DELETE runs, and its plan.

        The plan's closures were built against the statement's own
        WHERE; once subquery materialisation rewrites it, the rewritten
        expression gets a closure of its own for this execution.
        """
        where = self._materialize_subqueries(stmt.where, params)
        plan = self._dml_plan(stmt, table)
        if plan.fallbacks:
            self.database.stats["compile_fallbacks"] += plan.fallbacks
            _COMPILE_FALLBACKS.inc(plan.fallbacks)
        if where is stmt.where:
            return plan.where_fn, plan
        return self._section(where, _single_table_context(table).columns), plan

    # ---------------------------------------------------------------- SELECT --

    def _execute_select(
        self, stmt: Select, params: Sequence[Any]
    ) -> tuple[list[str], list[tuple[Any, ...]] | ResultColumns]:
        """Column names and rows; a vector plan's rows stay
        :class:`ResultColumns` unless DISTINCT, LIMIT or a compound
        operator has to read them as rows."""
        columns, rows = self._execute_select_core(stmt, params)
        node = stmt
        while node.compound is not None:
            op, rhs = node.compound
            rhs_columns, rhs_rows = self._execute_select_core(rhs, params)
            if len(rhs_columns) != len(columns):
                raise ProgrammingError(
                    "SELECTs to the left and right of "
                    f"{op} do not have the same number of result columns"
                )
            rows = _apply_compound(op, rows, rhs_rows)
            node = rhs
        # ORDER BY / LIMIT on the head select apply post-compound when a
        # compound exists (the parser attaches them to the head).
        if stmt.compound is not None and stmt.order_by:
            rows = _order_projected(rows, columns, stmt.order_by, params)
        if stmt.compound is not None:
            rows = _apply_limit(rows, stmt, params)
        return columns, rows

    def _materialize_subqueries(
        self, expr: Optional[Expression], params: Sequence[Any]
    ) -> Optional[Expression]:
        """Replace ``IN (SELECT ...)`` items with literal value lists.

        Subqueries are uncorrelated by construction (the parser only
        accepts them in IN lists), so one evaluation per statement is
        both correct and efficient.

        Identity-preserving: when the tree holds no subquery the input
        expression is returned unchanged, so the caller's ``is`` check
        (and with it statement-level plan caching) keeps working.
        """

        def values(subquery: Subquery) -> list[Expression]:
            columns, rows = self._execute_select(subquery.select, params)
            if len(columns) != 1:
                raise ProgrammingError(
                    "IN subquery must return exactly one column"
                )
            return [Literal(row[0]) for row in rows]

        return _replace_subqueries(expr, values)

    def _execute_select_core(
        self, stmt: Select, params: Sequence[Any]
    ) -> tuple[list[str], list[tuple[Any, ...]] | ResultColumns]:
        if stmt.where is not None:
            rewritten = self._materialize_subqueries(stmt.where, params)
            if rewritten is not stmt.where:
                copied = _copy_select_with_where(stmt, rewritten)
                # Keep an EXPLAIN ANALYZE probe pointed at the statement
                # actually executed (identity changes with the copy).
                if self._probe is not None and self._probe.target is stmt:
                    self._probe.target = copied
                stmt = copied
        if stmt.table is None:
            return self._select_no_from(stmt, params)

        plan = self._select_plan(stmt)
        if plan.fallbacks:
            self.database.stats["compile_fallbacks"] += plan.fallbacks
            _COMPILE_FALLBACKS.inc(plan.fallbacks)

        probe_active = self._probe is not None and self._probe.target is stmt

        projected = None
        if plan.compact is not None and not probe_active:
            projected = self._compact_select(stmt, plan, params)
        if projected is None:
            raw_rows, access = self._produce_rows(stmt, plan, params)
            if plan.where_fn is not None:
                where_fn = plan.where_fn
                raw_rows = (
                    row for row in raw_rows
                    if truthy(where_fn(row, params, None))
                )
                if probe_active:
                    raw_rows = self._probe.wrap("where", raw_rows)
            if plan.is_grouped:
                projected = self._group_rows(
                    stmt, plan.grouped, plan.layout.total_width, raw_rows, params
                )
            else:
                projected = self._project_rows(
                    stmt, plan.proj, plan.order_specs, raw_rows, params,
                    presorted=access.ordered,
                )

        if stmt.distinct:
            projected = _distinct(projected)

        if stmt.compound is None:
            # Ordering is handled while projecting so sort keys can see
            # pre-projection columns; only LIMIT remains.
            projected = _apply_limit(projected, stmt, params)
        return plan.columns, projected

    def _select_no_from(
        self, stmt: Select, params: Sequence[Any]
    ) -> tuple[list[str], list[tuple[Any, ...]]]:
        """``SELECT 1+1`` style computations."""
        columns = []
        values = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                raise ProgrammingError("'*' requires a FROM clause")
            columns.append(item.alias or ref_name(item.expr))
            values.append(evaluate(item.expr, None, params))
        rows = [tuple(values)]
        if stmt.where is not None and not truthy(evaluate(stmt.where, None, params)):
            rows = []
        return columns, rows

    # -- row production (FROM + JOIN with pushdown) ---------------------------

    def _produce_rows(
        self, stmt: Select, splan: SelectPlan, params: Sequence[Any]
    ) -> tuple[Iterator[list[Any]], "_AccessPlan"]:
        assert stmt.table is not None
        base = self.database.table(stmt.table.name)
        base_alias = stmt.table.effective_name

        conjuncts = _conjuncts(stmt.where) if not stmt.joins else []
        order_by = stmt.order_by if _can_push_order(stmt) else []
        plan = _plan_access(
            base, base_alias, conjuncts, order_by, params,
            _select_alias_names(stmt),
        )
        rows = self._iter_plan(base, plan)
        probe = self._probe if (
            self._probe is not None and self._probe.target is stmt
        ) else None
        if probe is not None:
            rows = probe.wrap("scan", rows)

        for i, (join, jplan) in enumerate(zip(stmt.joins, splan.joins)):
            rows = self._join(
                rows, self.database.table(join.table.name), join.kind,
                splan.layout.total_width, params, jplan,
            )
            if probe is not None:
                rows = probe.wrap(f"join{i}", rows)
        return rows, plan

    def _iter_plan(
        self, table: Table, plan: "_AccessPlan"
    ) -> Iterator[list[Any]]:
        """Produce base-table rows along the planned access path,
        charging row counts to the database's stats counters."""
        stats = self.database.stats
        rows = table.rows
        if plan.kind == "eq":
            stats["index_eq_probes"] += 1
            rowids = sorted(plan.index.lookup(plan.key))
            stats["rows_scanned"] += len(rowids)
            stats["rows_via_index"] += len(rowids)
            for rowid in rowids:
                yield list(rows[rowid])
        elif plan.kind == "range":
            stats["index_range_scans"] += 1
            if plan.ordered:
                stats["order_pushdowns"] += 1
            count = 0
            try:
                for rowid in plan.index.range_rowids(
                    plan.prefix, plan.lo, plan.hi,
                    descending=plan.descending,
                    include_null=plan.include_null,
                ):
                    count += 1
                    yield list(rows[rowid])
            finally:
                # finally so an early LIMIT stop still charges its rows
                stats["rows_scanned"] += count
                stats["rows_via_index"] += count
        else:
            stats["full_scans"] += 1
            stats["rows_scanned"] += len(table)
            for _rowid, row in table.scan():
                yield list(row)

    def _join(
        self,
        left_rows: Iterator[list[Any]],
        inner: Table,
        kind: str,
        total: int,
        params: Sequence[Any],
        jplan: Optional[JoinPlan],
    ) -> Iterator[list[Any]]:
        inner_width = len(inner.columns)

        if jplan is None:  # CROSS JOIN, or a join without a condition
            inner_rows = [list(r) for _, r in inner.scan()]
            for left in left_rows:
                for inner_row in inner_rows:
                    combined = list(left)
                    combined += inner_row
                    yield combined
            return

        cond_fn = jplan.condition
        if jplan.probe is not None:
            # Hash join: build a table over the inner relation, probe it
            # with each (padded) outer row.
            build_fn, probe_fn = jplan.build, jplan.probe
            table_map: dict[Any, list[list[Any]]] = {}
            for _rowid, inner_row in inner.scan():
                key = build_fn(inner_row, params, None)
                if key is None:
                    continue
                table_map.setdefault(key, []).append(list(inner_row))
            lookup = _JoinKeys(table_map)
            for left in left_rows:
                padded = left + [None] * (total - len(left))
                key = probe_fn(padded, params, None)
                matches = lookup.matches(key) if key is not None else []
                emitted = False
                for inner_row in matches:
                    combined = left + inner_row
                    combined += [None] * (total - len(combined))
                    if truthy(cond_fn(combined, params, None)):
                        emitted = True
                        yield combined[: len(left) + inner_width]
                if not emitted and kind == "LEFT":
                    yield left + [None] * inner_width
            return

        # No equi-key: nested loop.
        inner_rows = [list(r) for _, r in inner.scan()]
        for left in left_rows:
            emitted = False
            for inner_row in inner_rows:
                combined = left + inner_row
                padded = combined + [None] * (total - len(combined))
                if truthy(cond_fn(padded, params, None)):
                    emitted = True
                    yield combined
            if not emitted and kind == "LEFT":
                yield left + [None] * inner_width

    # -- plans (see compile.py) -------------------------------------------------

    def _section(
        self,
        expr: Expression,
        columns: dict[str, int],
        ambiguous: frozenset[str] = frozenset(),
        agg_slots: Optional[dict[int, int]] = None,
        used: Optional[set] = None,
    ) -> Any:
        """The closure one pipeline section runs ``expr`` with.

        The compiler's closure when it lowers ``expr``; otherwise an
        :class:`_Interpreted` one with the same signature, which the
        plan counts as a fallback.  Any exception from the compiler is a
        refusal: the interpreted closure then raises, or not, when a row
        reaches it.  ``columns``/``ambiguous`` resolve names in the row
        shape the closure is given; ``agg_slots`` marks a section
        evaluated after grouping.
        """
        try:
            return compile_expr(expr, columns, agg_slots, used)
        except Exception:
            return _Interpreted(expr, columns, ambiguous, agg_slots)

    def _sections(
        self,
        columns: dict[str, int],
        ambiguous: frozenset[str] = frozenset(),
        used: Optional[set] = None,
        remap: Optional[dict[int, int]] = None,
    ):
        """``section(e, agg_slots=None)`` for one row shape: a star
        column's row position (translated by ``remap`` into a compacted
        shape), or an expression's :meth:`_section` closure.  Every
        position read is added to ``used`` when given."""

        def section(e: Any, agg_slots: Optional[dict[int, int]] = None) -> Any:
            if isinstance(e, int):
                if used is not None:
                    used.add(e)
                return e if remap is None else remap[e]
            return self._section(e, columns, ambiguous, agg_slots, used)

        return section

    def _select_plan(self, stmt: Select) -> SelectPlan:
        """Fetch or build the plan for a SELECT.

        Plans are cached on the Statement object itself, so their
        lifetime is the connection's LRU statement cache; validity is
        keyed on ``Database.schema_version`` (any DDL invalidates).
        """
        database = self.database
        plan = getattr(stmt, "_msql_plan", None)
        if plan is not None and plan.schema_version == database.schema_version:
            database.stats["plan_cache_hits"] += 1
            _PLAN_HITS.inc()
            return plan
        t0 = time.perf_counter()
        plan = self._build_select_plan(stmt)
        _COMPILE_SECONDS.observe(time.perf_counter() - t0)
        database.stats["plan_cache_misses"] += 1
        _PLAN_MISSES.inc()
        stmt._msql_plan = plan
        return plan

    def _build_select_plan(self, stmt: Select) -> SelectPlan:
        """Pick a closure for every section of a SELECT.

        Each expression gets its own :meth:`_section` closure, so an
        expression the compiler refuses leaves the others compiled.
        Layout errors (unknown table, duplicate alias, an unknown
        ``alias.*``, a GROUP BY position out of range) propagate: the
        statement fails before any row is read.
        """
        database = self.database
        layout = _Layout.build(database, stmt)
        used: set[int] = set()
        section = self._sections(layout.resolution, layout.ambiguous, used)
        columns, exprs = _expand_items(stmt.items, layout)
        plan = SelectPlan(
            schema_version=database.schema_version, layout=layout,
            columns=columns, exprs=exprs,
            where_fn=section(stmt.where) if stmt.where is not None else None,
        )

        offset = len(database.table(stmt.table.name).columns)
        for join in stmt.joins:
            inner_table = database.table(join.table.name)
            jplan: Optional[JoinPlan] = None
            if join.kind != "CROSS" and join.condition is not None:
                jplan = JoinPlan(None, None, section(join.condition))
                equi = _find_equi_key(
                    join.condition, layout, offset, len(inner_table.columns)
                )
                if equi is not None:
                    jplan.probe = section(equi[0])
                    jplan.build = self._section(equi[1], _single_table_context(
                        inner_table, alias=join.table.effective_name
                    ).columns)
            plan.joins.append(jplan)
            offset += len(inner_table.columns)

        plan.is_grouped = bool(stmt.group_by) or any(
            contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None and contains_aggregate(stmt.having))
        if plan.is_grouped:
            plan.grouped = self._build_group_plan(stmt, columns, exprs, section)
        else:
            plan.proj, plan.order_specs = self._build_plain_plan(
                stmt, columns, exprs, section
            )

        plan.fallbacks = _count_interpreted(
            plan.where_fn, plan.joins, plan.grouped, plan.proj, plan.order_specs
        )
        if plan.fallbacks or stmt.joins:
            return plan
        try:
            plan.compact = self._build_compact(stmt, plan, used)
        except Exception:
            plan.compact = None
        if plan.compact is not None:
            try:
                plan.vector = self._build_vector(stmt, plan, used)
            except Exception:
                plan.vector = None
        return plan

    def _build_plain_plan(
        self, stmt: Select, columns: list[str], exprs: list[Any], section
    ) -> tuple[list[Any], Optional[list[tuple[Any, bool]]]]:
        """Projection + ORDER BY closures for a non-grouped select:
        (per column, per ORDER BY item (spec, descending) or None)."""
        proj = [section(e) for e in exprs]
        if not stmt.order_by:
            return proj, None
        alias_map = {
            (item.alias or "").lower(): item.expr
            for item in stmt.items if item.alias
        }
        lowered = [c.lower() for c in columns]
        order_specs: list[tuple[Any, bool]] = []
        for order in stmt.order_by:
            spec = _order_spec(order, alias_map, columns, section)
            if (
                isinstance(spec, _Interpreted)
                and isinstance(spec.expr, ColumnRef)
                and spec.expr.qualified.lower() not in spec.context.columns
                and spec.expr.name.lower() in lowered
            ):
                # A name the row cannot resolve sorts by the projected
                # column of that name.
                spec = lowered.index(spec.expr.name.lower())
            order_specs.append((spec, bool(order.descending)))
        return proj, order_specs

    def _build_group_plan(
        self, stmt: Select, columns: list[str], exprs: list[Any], section
    ) -> GroupPlan:
        """Hash aggregation: group keys and aggregate arguments over
        input rows; HAVING, the select list and ORDER BY over each
        group's representative row and finalized aggregates."""
        # GROUP BY and HAVING may name select-list aliases ("GROUP BY
        # k", "HAVING c > 1"), GROUP BY also ordinals ("GROUP BY 1").
        alias_map = {
            (item.alias or "").lower(): item.expr
            for item in stmt.items if item.alias
        }
        group_by = [
            _resolve_group_expr(g, alias_map, stmt.items) for g in stmt.group_by
        ]
        having = (
            _substitute_aliases(stmt.having, alias_map)
            if stmt.having is not None else None
        )
        agg_nodes = _aggregate_calls(stmt, having)
        agg_slots = {id(node): i for i, node in enumerate(agg_nodes)}
        return GroupPlan(
            group_fns=[section(g) for g in group_by],
            acc_factories=[
                (lambda n=node: _make_distinct(n)) if node.distinct
                else (lambda name=node.name: make_aggregate(name))
                for node in agg_nodes
            ],
            arg_fns=[
                section(node.args[0])
                if node.args and not isinstance(node.args[0], Star)
                else None  # COUNT(*)
                for node in agg_nodes
            ],
            having_fn=(
                section(having, agg_slots) if having is not None else None
            ),
            item_slots=[section(e, agg_slots) for e in exprs],
            order_specs=[
                (
                    _order_spec(order, alias_map, columns, section, agg_slots),
                    bool(order.descending),
                )
                for order in stmt.order_by
            ] if stmt.order_by else None,
        )

    def _build_compact(
        self, stmt: Select, plan: SelectPlan, used: set
    ) -> Optional[CompactPlan]:
        """Projection-pushdown variant for single-table full scans.

        When the fully-compiled statement touches a strict subset of the
        table's columns, recompile its closures against the compacted
        tuple shape ``Table.scan_batches(positions=...)`` yields; when it
        touches every column (or none — e.g. COUNT(*)), reuse the full
        closures over the raw stored rows (zero copies either way).
        """
        total = plan.layout.total_width
        if not used or len(used) >= total:
            return CompactPlan(
                None, plan.where_fn, plan.grouped, plan.proj, plan.order_specs
            )
        positions = tuple(sorted(used))
        remap = {p: i for i, p in enumerate(positions)}
        section = self._sections(_compact_resolution(plan, remap), remap=remap)
        where_fn = section(stmt.where) if stmt.where is not None else None
        grouped = proj = order_specs = None
        if plan.is_grouped:
            grouped = self._build_group_plan(
                stmt, plan.columns, plan.exprs, section
            )
        else:
            proj, order_specs = self._build_plain_plan(
                stmt, plan.columns, plan.exprs, section
            )
        if _count_interpreted(where_fn, grouped, proj, order_specs):
            return None
        return CompactPlan(positions, where_fn, grouped, proj, order_specs)

    def _build_vector(
        self, stmt: Select, plan: SelectPlan, used: set
    ) -> Optional[VectorPlan]:
        """Whole-column vectorized variant of the compact plan.

        Only built for columnar tables; every section must lower
        (``try_vcompile``) or no vector plan exists at all — unlike the
        row compiler there is no per-section mixing, because a vector
        run either completes or the executor re-runs the whole statement
        through the compact/row path.  GROUP BY stays on the compact
        path (per-group vectors don't pay); ungrouped aggregates become
        column sweeps.
        """
        table = self.database.table(stmt.table.name)
        if not getattr(table, "is_columnar", False):
            return None
        positions = tuple(sorted(used))
        remap = {p: i for i, p in enumerate(positions)}
        resolution = _compact_resolution(plan, remap)
        purities = [
            "text" if table.columns[p].affinity == "TEXT" else "num"
            for p in positions
        ]
        checked: set = set()
        where_fn = None
        where_pure = False
        if stmt.where is not None:
            out = try_vcompile(stmt.where, resolution, purities, checked)
            if out is None:
                return None
            where_fn, wpurity = out
            # A pure-numeric mask holds only int/float/None, so the
            # executor can filter with plain truth tests (no truthy()).
            where_pure = wpurity in ("num", "null")
        eq_where = _eq_where(table, stmt.table.effective_name, stmt.where)

        if plan.is_grouped:
            if stmt.group_by:
                return None
            gp = self._build_group_plan(
                stmt, plan.columns, plan.exprs,
                self._sections(resolution, remap=remap),
            )
            if _count_interpreted(gp):
                return None
            # The same aggregate sites, in the same order, as gp's
            # acc_factories.
            alias_map = {
                (item.alias or "").lower(): item.expr
                for item in stmt.items if item.alias
            }
            agg_nodes = _aggregate_calls(stmt, (
                _substitute_aliases(stmt.having, alias_map)
                if stmt.having is not None else None
            ))
            aggs: list[tuple[str, bool, bool, Any]] = []
            for node in agg_nodes:
                star = not node.args or isinstance(node.args[0], Star)
                argvec = None
                if not star:
                    out = try_vcompile(
                        node.args[0], resolution, purities, checked
                    )
                    if out is None:
                        return None
                    argvec = out[0]
                aggs.append(
                    (node.name.upper(), star, bool(node.distinct), argvec)
                )
            return VectorPlan(
                positions=positions,
                checked=tuple(sorted(positions[c] for c in checked)),
                where_fn=where_fn, where_pure=where_pure,
                kind="agg", aggs=aggs, grouped=gp, eq_where=eq_where,
            )

        items: list[Any] = []
        for e in plan.exprs:
            if isinstance(e, int):
                items.append(remap[e])
            elif isinstance(e, ColumnRef) and e.qualified.lower() in resolution:
                # A bare column is copied as ``*`` copies it: values of
                # any class, so it needs no purity check.
                items.append(resolution[e.qualified.lower()])
            else:
                out = try_vcompile(e, resolution, purities, checked)
                if out is None:
                    return None
                items.append(out[0])
        order: Optional[list[tuple[Any, bool]]] = None
        if stmt.order_by:
            alias_map = {
                (item.alias or "").lower(): item.expr
                for item in stmt.items if item.alias
            }
            lowered = [c.lower() for c in plan.columns]
            order = []
            for o in stmt.order_by:
                try:
                    resolved = _resolve_order_expr(o.expr, alias_map, plan.columns)
                except ProgrammingError:
                    return None
                if isinstance(resolved, int):
                    order.append((resolved, bool(o.descending)))
                    continue
                out = try_vcompile(resolved, resolution, purities, checked)
                if out is None:
                    # Same bare-name fallback as _build_plain_plan.
                    if (
                        isinstance(resolved, ColumnRef)
                        and resolved.name.lower() in lowered
                    ):
                        order.append(
                            (lowered.index(resolved.name.lower()),
                             bool(o.descending))
                        )
                        continue
                    return None
                order.append((out[0], bool(o.descending)))
        return VectorPlan(
            positions=positions,
            checked=tuple(sorted(positions[c] for c in checked)),
            where_fn=where_fn, where_pure=where_pure,
            kind="plain", items=items, order=order, eq_where=eq_where,
        )

    def _vector_select(
        self, stmt: Select, plan: SelectPlan, table: Table,
        params: Sequence[Any], slots: Optional[Sequence[int]] = None,
        recheck: bool = True,
    ) -> Optional[list[tuple[Any, ...]] | ResultColumns]:
        """Run the vector plan over every live row, or over ``slots``
        when an index probe selected them, or return None to fall back
        (atomic contract: impure column, empty relation, or any
        mid-flight error routes the whole statement to the compact/row
        path, which reproduces errors with canonical per-row semantics).
        ``recheck=False`` skips WHERE: the probe already applied it."""
        vp = plan.vector
        n = table.live_count if slots is None else len(slots)
        if n == 0:
            return None
        for p in vp.checked:
            if not table.column_pure(p):
                return None
        if slots is None:
            cols = [table.column_values(p) for p in vp.positions]
        else:
            cols = [table.column_gather(p, slots) for p in vp.positions]
        sel: Optional[list[int]] = None  # None = every row selected
        if vp.where_fn is not None and recheck:
            mask = vp.where_fn(cols, n, params)
            if type(mask) is _VS:
                if not truthy(mask.value):
                    sel = []
            elif vp.where_pure:
                if not all(mask):
                    sel = [i for i, v in enumerate(mask) if v]
            else:
                sel = [i for i, v in enumerate(mask) if truthy(v)]
        if plan.is_grouped:
            return self._vector_agg(plan, vp, cols, n, sel, params)
        return self._vector_plain(stmt, plan, vp, cols, n, sel, params)

    def _vector_plain(
        self, stmt: Select, plan: SelectPlan, vp: VectorPlan,
        cols: list, n: int, sel: Optional[list[int]],
        params: Sequence[Any],
    ) -> list[tuple[Any, ...]] | ResultColumns:
        """The projected rows: as the output columns themselves, unless
        an ORDER BY sorts them."""
        n_sel = n if sel is None else len(sel)
        out_cols: list[Sequence[Any]] = []
        for e in vp.items:
            if type(e) is int:
                full = cols[e]
            else:
                V = e(cols, n, params)
                if type(V) is _VS:
                    out_cols.append([V.value] * n_sel)
                    continue
                full = V
            out_cols.append(full if sel is None else [full[i] for i in sel])
        if vp.order is None or stmt.compound is not None or not n_sel:
            return ResultColumns(out_cols)
        projected = list(zip(*out_cols))
        key_cols: list[list[Any]] = []
        for spec, descending in vp.order:
            if type(spec) is int:
                vals = out_cols[spec]
            else:
                V = spec(cols, n, params)
                if type(V) is _VS:
                    vals = [V.value] * n_sel
                else:
                    vals = V if sel is None else [V[i] for i in sel]
            if len(vp.order) == 1 and type(vals) is array and vals.typecode == "q":
                # Integers only (a gathered run with no NULL and no
                # escape-hatch value): order the positions by the values
                # themselves.  Python's sort is stable with or without
                # ``reverse``, so ties keep row order as the key path does.
                order = sorted(range(n_sel), key=vals.__getitem__, reverse=descending)
                return [projected[i] for i in order]
            if descending:
                key_cols.append([_Reversor(sort_key(v)) for v in vals])
            else:
                key_cols.append([sort_key(v) for v in vals])
        paired = sorted(
            zip(zip(*key_cols), range(n_sel)), key=lambda p: p[0]
        )
        return [projected[i] for _, i in paired]

    def _vector_agg(
        self, plan: SelectPlan, vp: VectorPlan, cols: list, n: int,
        sel: Optional[list[int]], params: Sequence[Any],
    ) -> list[tuple[Any, ...]]:
        """Ungrouped aggregates as column sweeps.

        The big five (COUNT/SUM/AVG/MIN/MAX, non-DISTINCT) run as C-speed
        builtins over the selected values — each proven equivalent to its
        accumulator's step/finalize sequence; everything else feeds the
        row accumulator from the vectorized argument column.  HAVING and
        the projection reuse the PR 5 closures over the one representative
        row, exactly like _group_rows's single-group tail.
        """
        gp = vp.grouped
        n_sel = n if sel is None else len(sel)
        aggs: list[Any] = []
        for (name, star, distinct, argvec), factory in zip(
            vp.aggs, gp.acc_factories
        ):
            if star:
                if name == "COUNT" and not distinct:
                    aggs.append(n_sel)
                else:
                    acc = factory()
                    for _ in range(n_sel):
                        acc.step(1)
                    aggs.append(acc.finalize())
                continue
            V = argvec(cols, n, params)
            if type(V) is _VS:
                vals = [V.value] * n_sel
            else:
                vals = V if sel is None else [V[i] for i in sel]
            if distinct:
                acc = factory()
                for v in vals:
                    acc.step(v)
                aggs.append(acc.finalize())
            elif name == "COUNT":
                aggs.append(sum(1 for v in vals if v is not None))
            elif name == "SUM":
                nn = [v for v in vals if v is not None]
                aggs.append(sum(nn) if nn else None)
            elif name == "AVG":
                nn = [float(v) for v in vals if v is not None]
                aggs.append(sum(nn) / len(nn) if nn else None)
            elif name == "MIN":
                nn = [v for v in vals if v is not None]
                aggs.append(min(nn) if nn else None)
            elif name == "MAX":
                nn = [v for v in vals if v is not None]
                aggs.append(max(nn) if nn else None)
            elif name == "TOTAL":
                aggs.append(
                    sum((float(v) for v in vals if v is not None), 0.0)
                )
            else:  # STDDEV / VARIANCE / GROUP_CONCAT / future
                acc = factory()
                for v in vals:
                    acc.step(v)
                aggs.append(acc.finalize())
        if n_sel:
            first = 0 if sel is None else sel[0]
            rep: Sequence[Any] = [c[first] for c in cols]
        else:
            rep = [None] * len(vp.positions)
        results: list[tuple[Any, ...]] = []
        if gp.having_fn is None or truthy(gp.having_fn(rep, params, aggs)):
            values = tuple(
                rep[e] if type(e) is int else e(rep, params, aggs)
                for e in gp.item_slots
            )
            if gp.order_specs is not None:
                # Sorting one row is the identity, but the key closures
                # must still run: an erroring ORDER BY expression has to
                # trigger the fallback, not silently succeed here.
                for spec, _descending in gp.order_specs:
                    sort_key(
                        values[spec] if type(spec) is int
                        else spec(rep, params, aggs)
                    )
            results.append(values)
        return results

    def _compact_select(
        self, stmt: Select, plan: SelectPlan, params: Sequence[Any]
    ) -> Optional[list[tuple[Any, ...]] | ResultColumns]:
        """Batched scan → filter → project/aggregate over compacted rows.

        Runs when the access planner picks a full scan; an index access
        path goes to :meth:`_vector_probe` instead.  Returns None to
        route back to the row-at-a-time pipeline.
        """
        table = self.database.table(stmt.table.name)
        conjuncts = _conjuncts(stmt.where)
        order_by = stmt.order_by if _can_push_order(stmt) else []
        access = _plan_access(
            table, stmt.table.effective_name, conjuncts, order_by, params,
            _select_alias_names(stmt),
        )
        if access.kind != "scan":
            return self._vector_probe(stmt, plan, table, access, params)
        compact = plan.compact
        stats = self.database.stats
        stats["full_scans"] += 1
        stats["rows_scanned"] += len(table)
        if plan.vector is not None and getattr(table, "is_columnar", False):
            try:
                vector_result = self._vector_select(stmt, plan, table, params)
            except Exception:
                # Atomic-or-fallback: whatever went wrong (type surprise,
                # missing parameter, overflow), the compact path below
                # replays the statement with canonical row semantics and
                # raises — or succeeds — exactly as the row engine would.
                vector_result = None
            if vector_result is not None:
                stats["vector_selects"] += 1
                _VECTOR_SELECTS.inc()
                return vector_result
            stats["vector_fallbacks"] += 1
            _VECTOR_FALLBACKS.inc()
        where_fn = compact.where_fn
        batches = table.scan_batches(positions=compact.positions)
        if where_fn is not None:
            batches = (
                [row for row in chunk if truthy(where_fn(row, params, None))]
                for chunk in batches
            )
        rows = chain.from_iterable(batches)
        if plan.is_grouped:
            width = (
                len(compact.positions)
                if compact.positions is not None else plan.layout.total_width
            )
            return self._group_rows(stmt, compact.grouped, width, rows, params)
        return self._project_rows(
            stmt, compact.proj, compact.order_specs, rows, params
        )

    def _vector_probe(
        self, stmt: Select, plan: SelectPlan, table: Table,
        access: "_AccessPlan", params: Sequence[Any],
    ) -> Optional[list[tuple[Any, ...]] | ResultColumns]:
        """The vector plan over the slots an index probe selects.

        Takes a hash ``eq`` probe or an unordered btree ``range``, in
        the rowid order ``_iter_plan`` would stream them.  Ordered walks
        stay on the row path, where ORDER BY ... LIMIT stops early.  The
        WHERE clause is re-checked in full over the gathered columns, as
        the row path re-checks it per row, unless the hash probe has
        discharged every conjunct (:func:`_eq_discharged`).  Counters
        are charged only on success: on fallback the row pipeline
        charges them itself, so a probe is counted once either way.
        """
        if plan.vector is None or not table.is_columnar or access.ordered:
            return None
        if access.kind == "eq":
            rowids = sorted(access.index.lookup(access.key))
        else:
            rowids = list(access.index.range_rowids(
                access.prefix, access.lo, access.hi,
                descending=access.descending,
                include_null=access.include_null,
            ))
        stats = self.database.stats
        discharged = _eq_discharged(plan.vector, access, table, params)
        try:
            result = self._vector_select(
                stmt, plan, table, params, table.slots_of(rowids),
                recheck=not discharged,
            )
        except Exception:
            result = None  # the row path replays it with row semantics
        if result is None:
            stats["vector_fallbacks"] += 1
            _VECTOR_FALLBACKS.inc()
            return None
        if discharged:
            stats["probe_where_discharged"] += 1
        stats["index_eq_probes" if access.kind == "eq" else "index_range_scans"] += 1
        stats["rows_scanned"] += len(rowids)
        stats["rows_via_index"] += len(rowids)
        stats["vector_selects"] += 1
        _VECTOR_SELECTS.inc()
        return result

    def _project_rows(
        self,
        stmt: Select,
        proj: list[Any],
        order_specs: Optional[list[tuple[Any, bool]]],
        raw_rows: Iterable[Sequence[Any]],
        params: Sequence[Any],
        presorted: bool = False,
    ) -> list[tuple[Any, ...]]:
        """Project each row, sorting by ORDER BY keys computed from the
        unprojected row.  ``presorted`` rows arrive in ORDER BY order
        from an ordered index: no sort, and projection stops once
        LIMIT+OFFSET rows are in (the index stops producing rows too)."""
        needs_order = bool(stmt.order_by) and stmt.compound is None and not presorted
        row_cap = None
        if presorted and stmt.limit is not None:
            limit = evaluate(stmt.limit, None, params)
            if limit is not None and int(limit) >= 0:
                offset = (
                    evaluate(stmt.offset, None, params)
                    if stmt.offset is not None else 0
                )
                row_cap = int(limit) + int(offset or 0)
        specs = order_specs if needs_order else None
        projected: list[tuple[Any, ...]] = []
        order_keys: list[tuple] = []
        for row in raw_rows:
            values = tuple(
                row[e] if type(e) is int else e(row, params, None)
                for e in proj
            )
            if specs is not None:
                key = []
                for spec, descending in specs:
                    value = (
                        values[spec] if type(spec) is int
                        else spec(row, params, None)
                    )
                    k = sort_key(value)
                    key.append(_Reversor(k) if descending else k)
                order_keys.append(tuple(key))
            projected.append(values)
            if row_cap is not None and len(projected) >= row_cap:
                break
        if specs is not None:
            paired = sorted(
                zip(order_keys, range(len(projected))), key=lambda p: p[0]
            )
            projected = [projected[i] for _, i in paired]
        return projected

    def _group_rows(
        self,
        stmt: Select,
        gp: GroupPlan,
        width: int,
        raw_rows: Iterable[Sequence[Any]],
        params: Sequence[Any],
    ) -> list[tuple[Any, ...]]:
        """Hash-aggregate the rows; each group yields one result row
        (HAVING permitting), sorted by its ORDER BY keys.  ``width`` is
        the row width, for the all-NULL representative of the one
        group an ungrouped aggregate has over no rows."""
        group_fns = gp.group_fns
        arg_fns = gp.arg_fns
        factories = gp.acc_factories
        groups: dict[tuple, tuple[Sequence[Any], list[Any]]] = {}
        group_order: list[tuple] = []
        for row in raw_rows:
            if group_fns:
                key = tuple(_hashable(g(row, params, None)) for g in group_fns)
            else:
                key = ()
            group = groups.get(key)
            if group is None:
                group = (row, [f() for f in factories])
                groups[key] = group
                group_order.append(key)
            for fn, acc in zip(arg_fns, group[1]):
                acc.step(fn(row, params, None) if fn is not None else 1)

        if not groups and not stmt.group_by:
            # Aggregates over an empty relation still return one row.
            groups[()] = ([None] * width, [f() for f in factories])
            group_order.append(())

        having_fn = gp.having_fn
        item_slots = gp.item_slots
        results: list[tuple[Any, ...]] = []
        order_keys: list[tuple] = []
        for key in group_order:
            rep, accumulators = groups[key]
            aggs = [acc.finalize() for acc in accumulators]
            if having_fn is not None and not truthy(having_fn(rep, params, aggs)):
                continue
            values = tuple(
                rep[e] if type(e) is int else e(rep, params, aggs)
                for e in item_slots
            )
            if gp.order_specs is not None:
                order_key = []
                for spec, descending in gp.order_specs:
                    value = (
                        values[spec] if type(spec) is int
                        else spec(rep, params, aggs)
                    )
                    k = sort_key(value)
                    order_key.append(_Reversor(k) if descending else k)
                order_keys.append(tuple(order_key))
            results.append(values)
        if gp.order_specs is not None:
            paired = sorted(
                zip(order_keys, range(len(results))), key=lambda p: p[0]
            )
            results = [results[i] for _, i in paired]
        return results

    def _dml_plan(self, stmt: Statement, table: Table) -> DMLPlan:
        """Plan cache for UPDATE/DELETE WHERE and SET closures."""
        database = self.database
        plan = getattr(stmt, "_msql_plan", None)
        if plan is not None and plan.schema_version == database.schema_version:
            database.stats["plan_cache_hits"] += 1
            _PLAN_HITS.inc()
            return plan
        t0 = time.perf_counter()
        columns = _single_table_context(table).columns
        where_fn = (
            self._section(stmt.where, columns) if stmt.where is not None else None
        )
        assign_fns = [
            (table.position_of(name), self._section(expr, columns))
            for name, expr in getattr(stmt, "assignments", ())
        ]
        plan = DMLPlan(
            database.schema_version, where_fn, assign_fns,
            _count_interpreted(where_fn, assign_fns),
        )
        _COMPILE_SECONDS.observe(time.perf_counter() - t0)
        database.stats["plan_cache_misses"] += 1
        _PLAN_MISSES.inc()
        stmt._msql_plan = plan
        return plan


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class _DistinctWrapper:
    """Wraps an aggregate so it only sees distinct values."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: set[Any] = set()

    def step(self, value: Any) -> None:
        if value is None:
            self.inner.step(value)
            return
        marker = _hashable(value)
        if marker in self.seen:
            return
        self.seen.add(marker)
        self.inner.step(value)

    def finalize(self) -> Any:
        return self.inner.finalize()


def _make_distinct(node: FunctionCall):
    return _DistinctWrapper(make_aggregate(node.name))


class _Reversor:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversor") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversor) and other.value == self.value


class _AggregateEvaluator:
    """Evaluates expressions where aggregate sub-trees are precomputed."""

    def __init__(self, context, params, agg_index: dict[int, int], agg_values: list[Any]):
        self.context = context
        self.params = params
        self.agg_index = agg_index
        self.agg_values = agg_values

    def eval(self, expr: Expression) -> Any:
        rewritten = self._rewrite(expr)
        return evaluate(rewritten, self.context, self.params)

    def _rewrite(self, expr: Expression) -> Expression:
        index = self.agg_index.get(id(expr))
        if index is not None:
            return Literal(self.agg_values[index])
        # Shallow-copy nodes with rewritten children.
        import copy
        from . import ast_nodes as n

        if isinstance(expr, n.BinaryOp):
            return n.BinaryOp(expr.op, self._rewrite(expr.left), self._rewrite(expr.right))
        if isinstance(expr, n.UnaryOp):
            return n.UnaryOp(expr.op, self._rewrite(expr.operand))
        if isinstance(expr, n.IsNull):
            return n.IsNull(self._rewrite(expr.operand), expr.negated)
        if isinstance(expr, n.InList):
            return n.InList(
                self._rewrite(expr.operand),
                [self._rewrite(i) for i in expr.items],
                expr.negated,
            )
        if isinstance(expr, n.Between):
            return n.Between(
                self._rewrite(expr.operand), self._rewrite(expr.low),
                self._rewrite(expr.high), expr.negated,
            )
        if isinstance(expr, n.Like):
            return n.Like(
                self._rewrite(expr.operand), self._rewrite(expr.pattern), expr.negated
            )
        if isinstance(expr, n.FunctionCall):
            if is_aggregate_call(expr):
                # aggregate not in index — e.g. nested aggregates
                raise ProgrammingError(
                    f"misuse of aggregate function {expr.name}()"
                )
            return n.FunctionCall(
                expr.name, [self._rewrite(a) for a in expr.args], expr.distinct
            )
        if isinstance(expr, n.CaseExpr):
            return n.CaseExpr(
                self._rewrite(expr.operand) if expr.operand else None,
                [(self._rewrite(c), self._rewrite(r)) for c, r in expr.whens],
                self._rewrite(expr.default) if expr.default else None,
            )
        if isinstance(expr, n.CastExpr):
            return n.CastExpr(self._rewrite(expr.operand), expr.target_type)
        return expr


class _Interpreted:
    """A section the compiler refused, as a closure with the compiled
    signature ``fn(row, params, aggs)``.

    It interprets its expression on the row it is given, so an error
    (an unknown name or function, aggregate misuse) surfaces only when
    a row reaches it, as it does in sqlite.  With ``agg_slots`` it is a
    post-aggregation section: aggregate call sites read the finalized
    values in ``aggs``.  Its one row context is rebound on each call,
    which is safe because a plan runs on one connection's statement,
    one execution at a time.
    """

    __slots__ = ("expr", "context", "agg_slots")

    def __init__(
        self,
        expr: Expression,
        columns: dict[str, int],
        ambiguous: frozenset[str] = frozenset(),
        agg_slots: Optional[dict[int, int]] = None,
    ):
        self.expr = expr
        self.context = RowContext(columns, ambiguous)
        self.agg_slots = agg_slots

    def __call__(self, row: Sequence[Any], params: Sequence[Any], aggs) -> Any:
        context = self.context.bind(row)
        if self.agg_slots is None:
            return evaluate(self.expr, context, params)
        return _AggregateEvaluator(
            context, params, self.agg_slots, aggs
        ).eval(self.expr)


class _OrdinalOutOfRange(_Interpreted):
    """An ORDER BY position past the select list: it raises when a row
    reaches it, so an empty result raises nothing."""

    def __call__(self, row: Sequence[Any], params: Sequence[Any], aggs) -> Any:
        raise ProgrammingError(f"ORDER BY position {self.expr.value} out of range")


def _count_interpreted(*parts: Any) -> int:
    """The :class:`_Interpreted` closures among ``parts``, looking into
    lists, tuples and join/group plans."""
    count = 0
    for part in parts:
        if isinstance(part, _Interpreted):
            count += 1
        elif isinstance(part, (list, tuple)):
            count += _count_interpreted(*part)
        elif isinstance(part, (JoinPlan, GroupPlan)):
            count += _count_interpreted(*vars(part).values())
    return count


class _Layout:
    """Column layout of the joined row and name-resolution tables."""

    def __init__(self) -> None:
        self.resolution: dict[str, int] = {}
        self.ambiguous: set[str] = set()
        self.total_width = 0
        self.table_spans: list[tuple[str, int, int, Table]] = []  # alias, start, end

    @classmethod
    def build(cls, database: Database, stmt: Select) -> "_Layout":
        layout = cls()
        assert stmt.table is not None
        refs: list[TableRef] = [stmt.table] + [j.table for j in stmt.joins]
        seen_aliases: set[str] = set()
        offset = 0
        for ref in refs:
            table = database.table(ref.name)
            alias = ref.effective_name.lower()
            if alias in seen_aliases:
                raise ProgrammingError(f"duplicate table name or alias: {alias}")
            seen_aliases.add(alias)
            layout.table_spans.append((alias, offset, offset + len(table.columns), table))
            for i, column in enumerate(table.columns):
                position = offset + i
                layout.resolution[f"{alias}.{column.lower_name}"] = position
                bare = column.lower_name
                if bare in layout.resolution and bare not in layout.ambiguous:
                    layout.ambiguous.add(bare)
                    del layout.resolution[bare]
                elif bare not in layout.ambiguous:
                    layout.resolution[bare] = position
            offset += len(table.columns)
        layout.total_width = offset
        layout.ambiguous = frozenset(layout.ambiguous)  # type: ignore[assignment]
        return layout

    def span_for(self, alias: Optional[str]) -> tuple[int, int]:
        if alias is None:
            return (0, self.total_width)
        wanted = alias.lower()
        for name, start, end, _table in self.table_spans:
            if name == wanted:
                return (start, end)
        raise ProgrammingError(f"no such table: {alias}")

    def column_names_for_span(self, start: int, end: int) -> list[str]:
        names: list[str] = []
        for alias, s, e, table in self.table_spans:
            for i, column in enumerate(table.columns):
                position = s + i
                if start <= position < end:
                    names.append(column.name)
        return names


def _expand_items(
    items: list[SelectItem], layout: _Layout
) -> tuple[list[str], list[Any]]:
    """Expand ``*`` and return (column names, per-column position-or-expr)."""
    columns: list[str] = []
    exprs: list[Any] = []  # int position for star columns, Expression otherwise
    for item in items:
        if isinstance(item.expr, Star):
            start, end = layout.span_for(item.expr.table)
            names = layout.column_names_for_span(start, end)
            for position, name in zip(range(start, end), names):
                columns.append(name)
                exprs.append(position)
        else:
            columns.append(item.alias or ref_name(item.expr))
            exprs.append(item.expr)
    return columns, exprs


def _single_table_context(table: Table, alias: Optional[str] = None) -> RowContext:
    mapping: dict[str, int] = {}
    names = (alias or table.name).lower()
    for i, column in enumerate(table.columns):
        mapping[column.lower_name] = i
        mapping[f"{names}.{column.lower_name}"] = i
        mapping[f"{table.name.lower()}.{column.lower_name}"] = i
    return RowContext(mapping)


def _conjuncts(expr: Optional[Expression]) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


@dataclass
class _AccessPlan:
    """One chosen base-table access path.

    ``kind`` is ``"scan"`` (every row), ``"eq"`` (hash-index probe on
    ``key``), or ``"range"`` (ordered-index walk: equality on the
    leading ``prefix`` columns, ``lo``/``hi`` bounds on the next one).
    ``ordered`` marks that rows already satisfy the statement's ORDER BY
    so the sort — and with a LIMIT, most of the scan — can be skipped.
    """

    kind: str
    index: Optional[Index] = None
    key: tuple = ()
    prefix: tuple = ()
    lo: Optional[tuple[Any, bool]] = None
    hi: Optional[tuple[Any, bool]] = None
    descending: bool = False
    include_null: bool = False
    ordered: bool = False

    def describe(self, table: Table) -> str:
        if self.kind == "eq":
            assert self.index is not None
            return (
                f"SEARCH {table.name} USING INDEX {self.index.name} "
                f"({', '.join(self.index.column_names)}=?)"
            )
        if self.kind == "range":
            assert self.index is not None
            names = self.index.column_names
            parts = [f"{names[i]}=?" for i in range(len(self.prefix))]
            if self.lo is not None or self.hi is not None:
                bounded = names[len(self.prefix)]
                if (
                    self.lo is not None and self.hi is not None
                    and self.lo[1] and self.hi[1]
                ):
                    parts.append(f"{bounded} BETWEEN ? AND ?")
                else:
                    if self.lo is not None:
                        parts.append(f"{bounded}>{'=' if self.lo[1] else ''}?")
                    if self.hi is not None:
                        parts.append(f"{bounded}<{'=' if self.hi[1] else ''}?")
            detail = ", ".join(parts) if parts else "ORDER BY pushdown"
            return (
                f"SEARCH {table.name} USING ORDERED INDEX "
                f"{self.index.name} ({detail})"
            )
        return f"SCAN {table.name}"


def _can_push_order(stmt: Select) -> bool:
    """ORDER BY may stream from an ordered index only for plain
    single-table selects: joins reorder rows, grouping/distinct/compound
    materialise, and each sorts (or re-orders) on its own."""
    if not stmt.order_by or stmt.joins or stmt.compound is not None:
        return False
    if stmt.distinct or stmt.group_by or stmt.having is not None:
        return False
    return not any(contains_aggregate(item.expr) for item in stmt.items)


def _select_alias_names(stmt: Select) -> frozenset[str]:
    return frozenset(
        item.alias.lower() for item in stmt.items if item.alias
    )


def _eq_constant(
    conjunct: Expression, table: Table, alias: str
) -> Optional[tuple[str, Expression]]:
    """``(column name, constant)`` when ``conjunct`` is ``col = literal``
    or ``col = ?`` (either way round) on a column of ``table``."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    for col_side, const_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(col_side, ColumnRef)
            and isinstance(const_side, (Literal, Placeholder))
            and (col_side.table is None or col_side.table.lower() in (
                alias.lower(), table.name.lower(),
            ))
            and table.has_column(col_side.name)
        ):
            return col_side.name.lower(), const_side
    return None


def _eq_where(
    table: Table, alias: str, where: Optional[Expression]
) -> Optional[tuple[tuple[int, Expression], ...]]:
    """``VectorPlan.eq_where``: each WHERE conjunct as (column position,
    constant), or None unless every one is ``col = constant``."""
    if where is None:
        return None
    found = [_eq_constant(c, table, alias) for c in _conjuncts(where)]
    if not all(found):
        return None
    return tuple((table.position_of(name), const) for name, const in found)


def _probe_key(column: Column, value: Any) -> Any:
    """The index key that finds every row ``column = value`` accepts, or
    None where no one key does.

    The comparison reads a numeric string as its number against a number
    (``_compare_values``).  A numeric column stores every numeric string
    as its number, so a string key probes its number there.  A TEXT
    column holds only strings, and a number equals each string that
    spells it ('2', '2.0', ...): a numeric key declines its index.
    """
    if column.affinity == "TEXT":
        return value if isinstance(value, str) else None
    if isinstance(value, str):
        return _maybe_number(value)
    return value if isinstance(value, (int, float)) else None


class _JoinKeys:
    """A hash join's build side, looked up the way ``=`` compares.

    ``=`` reads a numeric string as its number against a number
    (``_compare_values``), so 2 equals '2' and '2.0'.  A probe key finds
    the rows under that very key, and across classes the rows under
    every key of the other class that compares equal to it.  A build
    side of one class and a probe of the same class (every PerfDMF
    catalog join is INTEGER = INTEGER) take the plain dict lookup.  The
    join re-checks its whole condition on every row returned.
    """

    __slots__ = ("rows", "has_text", "has_other", "_text_numbers")

    def __init__(self, rows: dict[Any, list[list[Any]]]):
        self.rows = rows
        texts = sum(isinstance(key, str) for key in rows)
        self.has_text = texts > 0
        self.has_other = texts < len(rows)
        self._text_numbers: Optional[dict[Any, list[list[Any]]]] = None

    def matches(self, key: Any) -> list[list[Any]]:
        found = self.rows.get(key, [])
        if isinstance(key, str):
            if self.has_other:
                number = _maybe_number(key)
                if not isinstance(number, str):
                    found = found + self.rows.get(number, [])
        elif self.has_text:
            found = found + self._numbers().get(key, [])
        return found

    def _numbers(self) -> dict[Any, list[list[Any]]]:
        """The rows under each numeric string key, keyed by its number."""
        if self._text_numbers is None:
            self._text_numbers = {}
            for key, rows in self.rows.items():
                if isinstance(key, str):
                    number = _maybe_number(key)
                    if not isinstance(number, str):
                        self._text_numbers.setdefault(number, []).extend(rows)
        return self._text_numbers


def _pinned_eq(
    table: Table,
    alias: str,
    conjuncts: list[Expression],
    params: Sequence[Any],
) -> dict[str, Any]:
    """Columns pinned by a ``col = constant`` conjunct, with the keys
    (:func:`_probe_key`) their indexes are probed with."""
    pinned: dict[str, Any] = {}
    for conjunct in conjuncts:
        found = _eq_constant(conjunct, table, alias)
        if found is None:
            continue
        name, const = found
        key = _probe_key(
            table.columns[table.position_of(name)],
            evaluate(const, None, params),
        )
        if key is not None:
            pinned[name] = key
    return pinned


def _eq_discharged(
    vector: VectorPlan, access: "_AccessPlan", table: Table,
    params: Sequence[Any],
) -> bool:
    """Whether the hash probe alone selected exactly the rows WHERE
    accepts, so the vector plan need not re-check it.

    Holds when every conjunct is ``col = constant`` on a column of the
    probed index that holds only numbers (no escape-hatch value), with a
    non-NaN numeric constant equal to that column's key: the hash map
    then returns precisely the rows whose value equals the constant.  A
    NaN key is excluded because the map finds a stored NaN object by
    identity, which the comparison rejects.
    """
    if access.kind != "eq" or vector.eq_where is None:
        return False
    positions = access.index.column_positions
    for position, const in vector.eq_where:
        if (
            position not in positions
            or table.columns[position].affinity == "TEXT"
            or not table.column_pure(position)
        ):
            return False
        value = evaluate(const, None, params)
        if (
            not isinstance(value, (int, float))
            or value != value
            or value != access.key[positions.index(position)]
        ):
            return False
    return True


_NORMALISED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _tighter_lo(a: tuple[Any, bool], b: tuple[Any, bool]) -> bool:
    ka, kb = sort_key(a[0]), sort_key(b[0])
    if ka != kb:
        return ka > kb
    return b[1] and not a[1]


def _tighter_hi(a: tuple[Any, bool], b: tuple[Any, bool]) -> bool:
    ka, kb = sort_key(a[0]), sort_key(b[0])
    if ka != kb:
        return ka < kb
    return b[1] and not a[1]


def _range_bounds(
    table: Table,
    alias: str,
    conjuncts: list[Expression],
    params: Sequence[Any],
) -> dict[str, list[Optional[tuple[Any, bool]]]]:
    """Columns bounded by ``<``/``<=``/``>``/``>=``/``BETWEEN`` against a
    constant, as ``name -> [lo, hi]`` with ``(value, inclusive)`` bounds.

    Bounds only *narrow* the scan; WHERE is re-applied in full afterwards,
    so collecting a subset (or a looser bound) is always safe.  A bound
    of the other class than its column (a number against TEXT, a string
    against a numeric column) is dropped: the index orders every number
    before every string, so it would cut off rows the comparison takes.
    """
    alias_lower = alias.lower()
    table_lower = table.name.lower()

    def column_of(expr: Expression) -> Optional[str]:
        if not isinstance(expr, ColumnRef):
            return None
        if expr.table is not None and expr.table.lower() not in (
            alias_lower, table_lower,
        ):
            return None
        if not table.has_column(expr.name):
            return None
        return expr.name.lower()

    def constant_of(expr: Expression) -> Any:
        if not isinstance(expr, (Literal, Placeholder)):
            return None
        return evaluate(expr, None, params)

    bounds: dict[str, list[Optional[tuple[Any, bool]]]] = {}

    def add(name: str, lo: Optional[tuple[Any, bool]],
            hi: Optional[tuple[Any, bool]]) -> None:
        affinity = table.columns[table.position_of(name)].affinity
        kind = str if affinity == "TEXT" else (int, float)
        if lo is not None and not isinstance(lo[0], kind):
            lo = None
        if hi is not None and not isinstance(hi[0], kind):
            hi = None
        if lo is None and hi is None:
            return
        entry = bounds.setdefault(name, [None, None])
        if lo is not None and (entry[0] is None or _tighter_lo(lo, entry[0])):
            entry[0] = lo
        if hi is not None and (entry[1] is None or _tighter_hi(hi, entry[1])):
            entry[1] = hi

    for conjunct in conjuncts:
        if isinstance(conjunct, BinaryOp) and conjunct.op in _NORMALISED_OP:
            op = conjunct.op
            name = column_of(conjunct.left)
            const_expr = conjunct.right
            if name is None:
                name = column_of(conjunct.right)
                if name is None:
                    continue
                const_expr = conjunct.left
                op = _NORMALISED_OP[op]  # "3 < col" means "col > 3"
            value = constant_of(const_expr)
            if value is None:
                continue  # comparisons against NULL match nothing anyway
            if op in (">", ">="):
                add(name, (value, op == ">="), None)
            else:
                add(name, None, (value, op == "<="))
        elif isinstance(conjunct, Between) and not conjunct.negated:
            name = column_of(conjunct.operand)
            if name is None:
                continue
            low = constant_of(conjunct.low)
            high = constant_of(conjunct.high)
            if low is None or high is None:
                continue
            add(name, (low, True), (high, True))
    return bounds


def _order_match(
    order_by: list[OrderItem],
    index: Index,
    start: int,
    alias: str,
    table: Table,
    pinned: dict[str, Any],
    alias_names: frozenset[str],
) -> tuple[bool, bool]:
    """Does walking ``index`` from column ``start`` (leading columns held
    equal) yield rows in ORDER BY order?  Returns (matched, descending).

    Equality-pinned columns are constant across matching rows, so they
    satisfy any position and direction.  Select-list aliases may shadow a
    column name with an arbitrary expression — those always bail.
    """
    if not order_by:
        return False, False
    names = [n.lower() for n in index.column_names]
    alias_lower = alias.lower()
    table_lower = table.name.lower()
    position = start
    direction: Optional[bool] = None
    for item in order_by:
        expr = item.expr
        if not isinstance(expr, ColumnRef):
            return False, False
        name = expr.name.lower()
        if expr.table is None and name in alias_names:
            return False, False
        if expr.table is not None and expr.table.lower() not in (
            alias_lower, table_lower,
        ):
            return False, False
        if not table.has_column(name):
            return False, False
        if name in pinned:
            continue
        if position >= len(names) or names[position] != name:
            return False, False
        if direction is None:
            direction = bool(item.descending)
        elif bool(item.descending) != direction:
            return False, False
        position += 1
    return True, bool(direction)


def _plan_access(
    table: Table,
    alias: str,
    conjuncts: list[Expression],
    order_by: list[OrderItem],
    params: Sequence[Any],
    alias_names: frozenset[str] = frozenset(),
) -> _AccessPlan:
    """Choose the base-table access path.

    Selection rules, in order:

    1. a hash (or ordered) index whose *every* column is pinned by an
       equality conjunct — exact probe, longest key wins;
    2. an ordered index with the longest equality-pinned leading prefix,
       optionally bounded on the following column by range conjuncts;
       ties prefer more bounds, then ORDER BY satisfaction;
    3. an ordered index whose column order satisfies ORDER BY (pure
       pushdown: with a LIMIT the scan stops after limit+offset rows);
    4. full table scan.
    """
    if not table.indexes:
        return _AccessPlan("scan")
    pinned = _pinned_eq(table, alias, conjuncts, params)

    best_eq: Optional[Index] = None
    if pinned:
        for index in table.indexes.values():
            if index.stale:
                continue  # suspended by a bulk load; contents unreliable
            names = [n.lower() for n in index.column_names]
            if all(n in pinned for n in names):
                if best_eq is None or len(names) > len(best_eq.column_names):
                    best_eq = index
    if best_eq is not None:
        key = tuple(pinned[n.lower()] for n in best_eq.column_names)
        return _AccessPlan("eq", index=best_eq, key=key)

    ranges = _range_bounds(table, alias, conjuncts, params)
    best: Optional[tuple[tuple[int, int, int], _AccessPlan]] = None
    for index in table.indexes.values():
        if not isinstance(index, SortedIndex) or index.stale:
            continue
        names = [n.lower() for n in index.column_names]
        prefix_len = 0
        while prefix_len < len(names) and names[prefix_len] in pinned:
            prefix_len += 1
        lo = hi = None
        if prefix_len < len(names) and names[prefix_len] in ranges:
            lo, hi = ranges[names[prefix_len]]
        if prefix_len == 0 and lo is None and hi is None:
            continue
        ordered, descending = _order_match(
            order_by, index, prefix_len, alias, table, pinned, alias_names
        )
        score = (
            prefix_len,
            int(lo is not None) + int(hi is not None),
            int(ordered),
        )
        plan = _AccessPlan(
            "range",
            index=index,
            prefix=tuple(pinned[n] for n in names[:prefix_len]),
            lo=lo,
            hi=hi,
            descending=descending,
            include_null=lo is None and hi is None,
            ordered=ordered,
        )
        if best is None or score > best[0]:
            best = (score, plan)
    if best is not None:
        return best[1]

    for index in table.indexes.values():
        if not isinstance(index, SortedIndex) or index.stale:
            continue
        ordered, descending = _order_match(
            order_by, index, 0, alias, table, pinned, alias_names
        )
        if ordered:
            return _AccessPlan(
                "range", index=index, descending=descending,
                include_null=True, ordered=True,
            )
    return _AccessPlan("scan")


def _find_equi_key(
    condition: Expression, layout: _Layout, inner_offset: int, inner_width: int
) -> Optional[tuple[Expression, Expression]]:
    """Find ``left_expr = inner_expr`` usable for a hash join.

    Returns (probe expression over already-joined columns, build expression
    over the inner table's own columns) or None.
    """
    inner_span = range(inner_offset, inner_offset + inner_width)
    inner_aliases = {
        alias for alias, start, end, _t in layout.table_spans
        if start == inner_offset
    }

    for conjunct in _conjuncts(condition):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        sides = [conjunct.left, conjunct.right]
        side_info = []
        for side in sides:
            refs = column_refs(side)
            if not refs:
                side_info.append("const")
                continue
            positions = []
            resolvable = True
            for ref in refs:
                key = ref.qualified.lower()
                if key in layout.resolution:
                    positions.append(layout.resolution[key])
                else:
                    resolvable = False
                    break
            if not resolvable:
                side_info.append("unknown")
                continue
            if all(p in inner_span for p in positions):
                side_info.append("inner")
            elif all(p not in inner_span for p in positions):
                side_info.append("outer")
            else:
                side_info.append("mixed")
        if set(side_info) == {"inner", "outer"}:
            if side_info[0] == "outer":
                outer_expr, inner_expr = conjunct.left, conjunct.right
            else:
                outer_expr, inner_expr = conjunct.right, conjunct.left
            # Rewrite the inner expression so it evaluates against the inner
            # table standalone: strip qualified refs down to bare names.
            inner_rewritten = _strip_qualifiers(inner_expr)
            return outer_expr, inner_rewritten
    return None


def _strip_qualifiers(expr: Expression) -> Expression:
    from . import ast_nodes as n
    if isinstance(expr, ColumnRef):
        return n.ColumnRef(name=expr.name, table=None)
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(expr.op, _strip_qualifiers(expr.left), _strip_qualifiers(expr.right))
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op, _strip_qualifiers(expr.operand))
    if isinstance(expr, n.FunctionCall):
        return n.FunctionCall(expr.name, [_strip_qualifiers(a) for a in expr.args], expr.distinct)
    if isinstance(expr, n.CastExpr):
        return n.CastExpr(_strip_qualifiers(expr.operand), expr.target_type)
    return expr


def _hashable(value: Any) -> Any:
    return value if not isinstance(value, (list, dict, set)) else repr(value)


def _distinct(rows: Iterable[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    seen: set[tuple[Any, ...]] = set()
    out: list[tuple[Any, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _apply_compound(
    op: str, left: list[tuple[Any, ...]], right: list[tuple[Any, ...]]
) -> list[tuple[Any, ...]]:
    if op == "UNION ALL":
        return list(left) + list(right)
    if op == "UNION":
        return _distinct(list(left) + list(right))
    if op == "EXCEPT":
        right_set = set(right)
        return [row for row in _distinct(left) if row not in right_set]
    if op == "INTERSECT":
        right_set = set(right)
        return [row for row in _distinct(left) if row in right_set]
    raise NotSupportedError(f"unsupported compound operator {op}")


def _replace_subqueries(expr: Optional[Expression], values) -> Optional[Expression]:
    """``expr`` with each ``IN (SELECT ...)`` item replaced by the list
    ``values(subquery)`` returns; ``expr`` itself when it holds none."""
    if expr is None:
        return None
    if not any(isinstance(node, Subquery) for node in walk(expr)):
        return expr
    if isinstance(expr, InList) and any(
        isinstance(item, Subquery) for item in expr.items
    ):
        items: list[Expression] = []
        for item in expr.items:
            if isinstance(item, Subquery):
                items.extend(values(item))
            else:
                items.append(item)
        return InList(
            _replace_subqueries(expr.operand, values),  # type: ignore[arg-type]
            items, expr.negated,
        )
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _replace_subqueries(expr.left, values),  # type: ignore[arg-type]
            _replace_subqueries(expr.right, values),  # type: ignore[arg-type]
        )
    from .ast_nodes import UnaryOp as _UnaryOp
    if isinstance(expr, _UnaryOp):
        return _UnaryOp(
            expr.op, _replace_subqueries(expr.operand, values)  # type: ignore[arg-type]
        )
    return expr


def _copy_select_with_where(stmt: Select, where: Optional[Expression]) -> Select:
    """Shallow copy of a Select with a different WHERE (cached statements
    must never be mutated)."""
    import copy

    clone = copy.copy(stmt)
    clone.where = where
    # The copied __dict__ may carry the original's compiled plan, whose
    # where_fn was built for the *old* WHERE — never reuse it.
    clone.__dict__.pop("_msql_plan", None)
    return clone


def _substitute_aliases(
    expr: Expression, alias_map: dict[str, Expression]
) -> Expression:
    """Replace bare column refs naming select aliases with their expression.

    Substitution is *by reference* so aggregate nodes inside the aliased
    expression keep their identity and hit the precomputed value table.
    """
    from . import ast_nodes as n

    if isinstance(expr, ColumnRef) and expr.table is None:
        replacement = alias_map.get(expr.name.lower())
        if replacement is not None:
            return replacement
        return expr
    if isinstance(expr, n.BinaryOp):
        return n.BinaryOp(
            expr.op,
            _substitute_aliases(expr.left, alias_map),
            _substitute_aliases(expr.right, alias_map),
        )
    if isinstance(expr, n.UnaryOp):
        return n.UnaryOp(expr.op, _substitute_aliases(expr.operand, alias_map))
    if isinstance(expr, n.IsNull):
        return n.IsNull(_substitute_aliases(expr.operand, alias_map), expr.negated)
    if isinstance(expr, n.InList):
        return n.InList(
            _substitute_aliases(expr.operand, alias_map),
            [_substitute_aliases(i, alias_map) for i in expr.items],
            expr.negated,
        )
    if isinstance(expr, n.Between):
        return n.Between(
            _substitute_aliases(expr.operand, alias_map),
            _substitute_aliases(expr.low, alias_map),
            _substitute_aliases(expr.high, alias_map),
            expr.negated,
        )
    if isinstance(expr, n.Like):
        return n.Like(
            _substitute_aliases(expr.operand, alias_map),
            _substitute_aliases(expr.pattern, alias_map),
            expr.negated,
        )
    return expr


def _resolve_group_expr(
    expr: Expression,
    alias_map: dict[str, Expression],
    items: list[SelectItem],
) -> Expression:
    """Resolve GROUP BY aliases and ordinals to their select expressions."""
    if isinstance(expr, Literal) and isinstance(expr.value, int):
        ordinal = expr.value
        if not 1 <= ordinal <= len(items):
            raise ProgrammingError(f"GROUP BY position {ordinal} out of range")
        return items[ordinal - 1].expr
    if isinstance(expr, ColumnRef) and expr.table is None:
        aliased = alias_map.get(expr.name.lower())
        if aliased is not None:
            return aliased
    return expr


def _resolve_order_expr(
    expr: Expression,
    alias_map: dict[str, Expression],
    columns: list[str],
) -> Any:
    """Resolve ORDER BY ordinals and select-list aliases.

    Returns an int (index into the projected row) or the expression itself.
    """
    if isinstance(expr, Literal) and isinstance(expr.value, int):
        ordinal = expr.value
        if not 1 <= ordinal <= len(columns):
            raise ProgrammingError(f"ORDER BY position {ordinal} out of range")
        return ordinal - 1
    if isinstance(expr, ColumnRef) and expr.table is None:
        key = expr.name.lower()
        if key in alias_map:
            lowered = [c.lower() for c in columns]
            if key in lowered:
                return lowered.index(key)
            return alias_map[key]
    return expr


def _order_spec(
    order: OrderItem,
    alias_map: dict[str, Expression],
    columns: list[str],
    section,
    agg_slots: Optional[dict[int, int]] = None,
) -> Any:
    """One ORDER BY item's sort key: an int index into the projected
    row, or ``section``'s closure for its expression."""
    try:
        resolved = _resolve_order_expr(order.expr, alias_map, columns)
    except ProgrammingError:
        return _OrdinalOutOfRange(order.expr, {})
    return resolved if isinstance(resolved, int) else section(resolved, agg_slots)


def _aggregate_calls(
    stmt: Select, having: Optional[Expression]
) -> list[FunctionCall]:
    """The aggregate call sites of a grouped SELECT (select list,
    alias-substituted HAVING, ORDER BY), deduplicated by identity in
    walk order."""
    calls: list[FunctionCall] = []
    seen: set[int] = set()
    targets = [item.expr for item in stmt.items]
    if having is not None:
        targets.append(having)
    targets.extend(order.expr for order in stmt.order_by)
    for target in targets:
        for node in walk(target):
            if is_aggregate_call(node) and id(node) not in seen:
                seen.add(id(node))
                calls.append(node)
    return calls


def _compact_resolution(
    plan: SelectPlan, remap: dict[int, int]
) -> dict[str, int]:
    """The plan's name resolution, over the compacted row shape."""
    return {
        key: remap[position]
        for key, position in plan.layout.resolution.items()
        if position in remap
    }


def _order_projected(
    rows: list[tuple[Any, ...]],
    columns: list[str],
    order_by: list[OrderItem],
    params: Sequence[Any],
) -> list[tuple[Any, ...]]:
    """Order already-projected rows (compound selects, grouped selects)."""
    lowered = [c.lower() for c in columns]

    def key_fn(row: tuple[Any, ...]) -> tuple:
        key = []
        for order in order_by:
            expr = order.expr
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                index = expr.value - 1
            elif isinstance(expr, ColumnRef) and expr.table is None and expr.name.lower() in lowered:
                index = lowered.index(expr.name.lower())
            else:
                raise ProgrammingError(
                    "ORDER BY on a compound SELECT must reference result "
                    "columns by name or position"
                )
            if not 0 <= index < len(row):
                raise ProgrammingError(f"ORDER BY position {index + 1} out of range")
            k = sort_key(row[index])
            key.append(_Reversor(k) if order.descending else k)
        return tuple(key)

    return sorted(rows, key=key_fn)


def _apply_limit(
    rows: list[tuple[Any, ...]] | ResultColumns, stmt: Select,
    params: Sequence[Any],
) -> list[tuple[Any, ...]] | ResultColumns:
    if stmt.limit is None:
        return rows
    limit = evaluate(stmt.limit, None, params)
    offset = evaluate(stmt.offset, None, params) if stmt.offset is not None else 0
    if limit is None:
        limit = -1
    limit = int(limit)
    offset = int(offset or 0)
    rows = rows if isinstance(rows, list) else list(rows)
    if limit < 0:
        return rows[offset:]
    return rows[offset : offset + limit]

"""``PerfDMFSession`` — the database-backed DataSession.

Implements the paper's database-only access method: selective queries
against stored trials without loading entire (possibly large) profiles,
plus bulk trial storage with the two precomputed summary views, derived
metrics on stored trials, and SQL aggregate operations (min / max /
mean / stddev — §5.2).

Storage layout and units follow :mod:`repro.core.schema.ddl`; time
values are stored in microseconds exactly as TAU records them.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

from repro.obs.metrics import registry as _registry
from repro.obs.trace import traced as _traced, tracer as _tracer

from ...db.api import DBConnection, connect
from ..api.entities import Application, Experiment, Trial
from ..model import DataSource
from ..model.derived_expr import evaluate_metric_expression, metric_names_in
from ..schema.manager import SchemaManager
from .datasession import DataSession, _entity_id

if TYPE_CHECKING:
    import numpy as np

    from ..model.columnar import ColumnarTrial

_ILP_COLUMNS = (
    "interval_event, node, context, thread, metric, inclusive, "
    "inclusive_percentage, exclusive, exclusive_percentage, "
    "inclusive_per_call, num_calls, num_subrs"
)
_ILP_PLACEHOLDERS = ", ".join("?" * 12)
_SUMMARY_COLUMNS = (
    "interval_event, metric, inclusive, inclusive_percentage, exclusive, "
    "exclusive_percentage, inclusive_per_call, num_calls, num_subrs"
)
_SUMMARY_PLACEHOLDERS = ", ".join("?" * 9)


class PerfDMFSession(DataSession):
    """A live session against a PerfDMF database."""

    def __init__(self, url_or_connection: str | DBConnection, create: bool = True):
        super().__init__()
        if isinstance(url_or_connection, DBConnection):
            self.connection = url_or_connection
            self._owns_connection = False
        else:
            self.connection = connect(url_or_connection)
            self._owns_connection = True
        self.schema = SchemaManager(self.connection)
        if create:
            self.schema.install()

    def close(self) -> None:
        if self._owns_connection:
            self.connection.close()

    # ------------------------------------------------------------------ entities --

    def create_application(self, name: str, **fields: Any) -> Application:
        app = Application(self.connection, name=name, **fields)
        app.save()
        return app

    def create_experiment(
        self, application: Application | int, name: str, **fields: Any
    ) -> Experiment:
        app_id = application.id if isinstance(application, Application) else application
        exp = Experiment(self.connection, name=name, application=app_id, **fields)
        exp.save()
        return exp

    def get_application(self, name: str) -> Optional[Application]:
        columns = self.connection.column_names("application")
        row = self.connection.query_one(
            f"SELECT {', '.join(columns)} FROM application WHERE name = ?", (name,)
        )
        if row is None:
            return None
        return Application.from_row(self.connection, columns, row)  # type: ignore[return-value]

    def get_or_create_application(self, name: str, **fields: Any) -> Application:
        existing = self.get_application(name)
        return existing if existing is not None else self.create_application(name, **fields)

    def get_application_list(self) -> list[Application]:
        columns = self.connection.column_names("application")
        rows = self.connection.query(
            f"SELECT {', '.join(columns)} FROM application ORDER BY id"
        )
        return [
            Application.from_row(self.connection, columns, row)  # type: ignore[misc]
            for row in rows
        ]

    def get_experiment_list(
        self, application: Application | int | None = None
    ) -> list[Experiment]:
        """Experiments of ``application``, else of the selected one.

        Passing the filter leaves the shared selection untouched, so
        concurrent callers of one session cannot see each other's."""
        columns = self.connection.column_names("experiment")
        sql = f"SELECT {', '.join(columns)} FROM experiment"
        params: list[Any] = []
        app_id = (
            _entity_id(application) if application is not None
            else self.selection.application_id
        )
        if app_id is not None:
            sql += " WHERE application = ?"
            params.append(app_id)
        sql += " ORDER BY id"
        return [
            Experiment.from_row(self.connection, columns, row)  # type: ignore[misc]
            for row in self.connection.query(sql, params)
        ]

    def get_trial_list(
        self, experiment: Experiment | int | None = None
    ) -> list[Trial]:
        """Trials of ``experiment``, else of the selected experiment or
        application (see :meth:`get_experiment_list`)."""
        columns = self.connection.column_names("trial")
        sql = f"SELECT {', '.join(columns)} FROM trial"
        params: list[Any] = []
        conditions = []
        exp_id = (
            _entity_id(experiment) if experiment is not None
            else self.selection.experiment_id
        )
        if exp_id is not None:
            conditions.append("experiment = ?")
            params.append(exp_id)
        elif self.selection.application_id is not None:
            conditions.append(
                "experiment IN (SELECT id FROM experiment WHERE application = ?)"
            )
            params.append(self.selection.application_id)
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        sql += " ORDER BY id"
        return [
            Trial.from_row(self.connection, columns, row)  # type: ignore[misc]
            for row in self.connection.query(sql, params)
        ]

    # ------------------------------------------------------------------ storage --

    def save_trial(
        self,
        source: DataSource | ColumnarTrial,
        experiment: Experiment | int,
        name: str,
        *,
        bulk: bool = True,
        **trial_fields: Any,
    ) -> Trial:
        """Store a trial's complete profile.

        Accepts either model representation.  Derives the topology
        columns (node_count, contexts_per_node, max_threads_per_context
        — paper §3.2) from the data, bulk-inserts location profiles with
        ``executemany``, and precomputes both summary tables.

        With ``bulk`` (the default) the whole profile is streamed through
        the connection's bulk-load mode: on minisql, secondary index
        maintenance and per-row undo records are deferred to one rebuild
        at the end of the batch; on sqlite the same code path is plain
        ``executemany`` batching.  Per-stage timings land in
        ``connection.ingest_stats`` (surfaced by ``connection.stats()``).
        ``bulk=False`` keeps the per-row legacy path for comparison.
        """
        started = perf_counter()
        if isinstance(source, DataSource):
            from ..model.columnar import ColumnarTrial

            columnar = ColumnarTrial.from_datasource(source)
            atomic_source: Optional[DataSource] = source
        else:
            columnar = source
            atomic_source = None
        parse_seconds = perf_counter() - started

        exp_id = experiment.id if isinstance(experiment, Experiment) else experiment
        triples = columnar.thread_triples
        fields = dict(trial_fields)
        if columnar.metadata and "xml_metadata" not in fields:
            fields["xml_metadata"] = json.dumps(
                columnar.metadata, sort_keys=True
            )
        fields.setdefault("node_count", int(triples[:, 0].max()) + 1 if len(triples) else 0)
        fields.setdefault(
            "contexts_per_node", int(triples[:, 1].max()) + 1 if len(triples) else 0
        )
        fields.setdefault(
            "max_threads_per_context",
            int(triples[:, 2].max()) + 1 if len(triples) else 0,
        )
        trial = Trial(self.connection, name=name, experiment=exp_id, **fields)
        trial.save()
        assert trial.id is not None

        conn = self.connection
        if bulk:
            conn.begin_bulk()
        try:
            insert_started = perf_counter()
            metric_ids = self._insert_named_rows(
                "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 0)",
                [(trial.id, n) for n in columnar.metric_names],
                "metric", trial.id,
            )
            event_ids = self._insert_named_rows(
                "INSERT INTO interval_event (trial, name, group_name) "
                "VALUES (?, ?, ?)",
                [
                    (trial.id, n, g)
                    for n, g in zip(columnar.event_names, columnar.event_groups)
                ],
                "interval_event", trial.id,
            )
            ilp_sql = (
                f"INSERT INTO interval_location_profile ({_ILP_COLUMNS}) "
                f"VALUES ({_ILP_PLACEHOLDERS})"
            )
            for m, metric_id in enumerate(metric_ids):
                if bulk:
                    rows: Iterable[tuple] = _location_rows_bulk(
                        columnar, m, metric_id, event_ids
                    )
                else:
                    rows = _location_rows(columnar, m, metric_id, event_ids)
                conn.executemany(ilp_sql, rows)
            insert_seconds = perf_counter() - insert_started

            index_started = perf_counter()
            if bulk:
                conn.end_bulk()  # the one secondary-index rebuild
            index_seconds = perf_counter() - index_started

            summary_started = perf_counter()
            for m, metric_id in enumerate(metric_ids):
                self._insert_summaries(columnar, m, metric_id, event_ids)
            if atomic_source is not None:
                self._save_atomic(atomic_source, trial.id)
            summary_seconds = perf_counter() - summary_started
            conn.commit()
        except BaseException:
            conn.rollback()
            if bulk:
                conn.end_bulk()
            raise

        rows_stored = columnar.num_data_points
        total_seconds = perf_counter() - started
        conn.ingest_stats = {
            "ingest_parse_seconds": parse_seconds,
            "ingest_insert_seconds": insert_seconds,
            "ingest_index_seconds": index_seconds,
            "ingest_summary_seconds": summary_seconds,
            "ingest_rows": rows_stored,
            "ingest_rows_per_second": (
                rows_stored / total_seconds if total_seconds > 0 else 0.0
            ),
        }
        if _tracer.enabled:
            _tracer.record(
                "session.save_trial", total_seconds,
                trial=name, rows=rows_stored,
            )
        _registry.counter("session.trials_saved").inc()
        _registry.absorb("db", conn.ingest_stats)
        return trial

    def _insert_named_rows(
        self, sql: str, rows: list[tuple], table: str, trial_id: int
    ) -> list[int]:
        """Batch-insert per-trial catalog rows and return their ids.

        One ``executemany`` instead of a per-row ``insert`` loop; both
        engines assign autoincrement ids in insertion order, so querying
        them back ordered by id reproduces the insertion sequence.
        """
        if not rows:
            return []
        self.connection.executemany(sql, rows)
        return [
            r[0]
            for r in self.connection.query(
                f"SELECT id FROM {table} WHERE trial = ? ORDER BY id", (trial_id,)
            )
        ]

    def _insert_summaries(
        self, columnar: ColumnarTrial, m: int, metric_id: int, event_ids: list[int]
    ) -> None:
        totals = columnar.total_summary(m)
        means = columnar.mean_summary(m)
        n = max(1, columnar.num_threads)
        # reference for summary percentages: total/mean of the longest event
        for table, summary in (
            ("interval_total_summary", totals),
            ("interval_mean_summary", means),
        ):
            inclusive = summary["inclusive"]
            exclusive = summary["exclusive"]
            calls = summary["calls"]
            subrs = summary["subroutines"]
            reference = float(inclusive.max()) if len(inclusive) else 0.0
            rows = []
            for e, event_id in enumerate(event_ids):
                inc = float(inclusive[e])
                exc = float(exclusive[e])
                ncalls = float(calls[e])
                rows.append(
                    (
                        event_id, metric_id, inc,
                        100.0 * inc / reference if reference > 0 else 0.0,
                        exc,
                        100.0 * exc / reference if reference > 0 else 0.0,
                        inc / ncalls if ncalls > 0 else 0.0,
                        ncalls, float(subrs[e]),
                    )
                )
            self.connection.executemany(
                f"INSERT INTO {table} ({_SUMMARY_COLUMNS}) "
                f"VALUES ({_SUMMARY_PLACEHOLDERS})",
                rows,
            )

    def _save_atomic(self, source: DataSource, trial_id: int) -> None:
        conn = self.connection
        atomic_ids: dict[int, int] = {}
        for event in source.atomic_events.values():
            atomic_ids[event.index] = conn.insert(
                "INSERT INTO atomic_event (trial, name, group_name) VALUES (?, ?, ?)",
                (trial_id, event.name, event.group),
            )
        rows = []
        for thread in source.all_threads():
            for up in thread.user_event_profiles.values():
                rows.append(
                    (
                        atomic_ids[up.event.index],
                        thread.node_id, thread.context_id, thread.thread_id,
                        up.count, up.max_value, up.min_value, up.mean_value,
                        up.stddev,
                    )
                )
        if rows:
            conn.executemany(
                "INSERT INTO atomic_location_profile (atomic_event, node, "
                "context, thread, sample_count, maximum_value, minimum_value, "
                "mean_value, standard_deviation) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # ------------------------------------------------------------------ queries --

    def _selected_trial_id(self, trial: Trial | int | None = None) -> int:
        if trial is not None:
            return trial.id if isinstance(trial, Trial) else trial
        if self.selection.trial_id is None:
            raise ValueError("no trial selected; call set_trial() first")
        return self.selection.trial_id

    def get_metrics(self, trial: Trial | int | None = None) -> list[str]:
        trial_id = self._selected_trial_id(trial)
        rows = self.connection.query(
            "SELECT name FROM metric WHERE trial = ? ORDER BY id", (trial_id,)
        )
        return [r[0] for r in rows]

    def get_interval_events(self, trial: Trial | int | None = None) -> list[dict[str, Any]]:
        trial_id = self._selected_trial_id(trial)
        sql = "SELECT id, name, group_name FROM interval_event WHERE trial = ?"
        params: list[Any] = [trial_id]
        if self.selection.event_name is not None:
            sql += " AND name = ?"
            params.append(self.selection.event_name)
        rows = self.connection.query(sql + " ORDER BY id", params)
        return [{"id": r[0], "name": r[1], "group": r[2]} for r in rows]

    def get_atomic_events(self, trial: Trial | int | None = None) -> list[dict[str, Any]]:
        trial_id = self._selected_trial_id(trial)
        rows = self.connection.query(
            "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id",
            (trial_id,),
        )
        return [{"id": r[0], "name": r[1], "group": r[2]} for r in rows]

    def get_interval_event_data(
        self, trial: Trial | int | None = None
    ) -> list[tuple]:
        """Location-profile rows honouring the node/context/thread/metric
        selection — the *selective query* path for large trials.

        Row shape: (event name, node, context, thread, metric name,
        inclusive, exclusive, calls, subroutines).
        """
        trial_id = self._selected_trial_id(trial)
        sql = (
            "SELECT e.name, p.node, p.context, p.thread, m.name, "
            "p.inclusive, p.exclusive, p.num_calls, p.num_subrs "
            "FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "JOIN metric m ON p.metric = m.id "
            "WHERE e.trial = ?"
        )
        params: list[Any] = [trial_id]
        for clause, value in (
            ("p.node = ?", self.selection.node),
            ("p.context = ?", self.selection.context),
            ("p.thread = ?", self.selection.thread),
            ("m.name = ?", self.selection.metric_name),
            ("e.name = ?", self.selection.event_name),
        ):
            if value is not None:
                sql += f" AND {clause}"
                params.append(value)
        sql += " ORDER BY e.id, p.node, p.context, p.thread"
        return self.connection.query(sql, params)

    def get_summary(
        self,
        kind: str = "mean",
        trial: Trial | int | None = None,
        metric_name: Optional[str] = None,
    ) -> list[tuple]:
        """Precomputed summary rows: (event name, inclusive, exclusive,
        calls, subroutines).  ``kind`` is 'mean' or 'total'."""
        if kind not in ("mean", "total"):
            raise ValueError("kind must be 'mean' or 'total'")
        trial_id = self._selected_trial_id(trial)
        metric_name = metric_name or self.selection.metric_name
        table = f"interval_{kind}_summary"
        sql = (
            f"SELECT e.name, s.inclusive, s.exclusive, s.num_calls, s.num_subrs "
            f"FROM {table} s "
            "JOIN interval_event e ON s.interval_event = e.id "
            "JOIN metric m ON s.metric = m.id WHERE e.trial = ?"
        )
        params: list[Any] = [trial_id]
        if metric_name is not None:
            sql += " AND m.name = ?"
            params.append(metric_name)
        return self.connection.query(sql + " ORDER BY e.id", params)

    def count_data_points(self, trial: Trial | int | None = None) -> int:
        """Number of stored location-profile rows for the trial."""
        trial_id = self._selected_trial_id(trial)
        return int(
            self.connection.scalar(
                "SELECT count(*) FROM interval_location_profile p "
                "JOIN interval_event e ON p.interval_event = e.id "
                "WHERE e.trial = ?",
                (trial_id,),
            )
        )

    # -- SQL aggregate pass-through (paper §5.2) -------------------------------------

    _AGGREGATES = ("min", "max", "avg", "sum", "count", "stddev", "variance")

    @_traced("session.aggregate")
    def aggregate(
        self,
        operation: str,
        column: str = "exclusive",
        trial: Trial | int | None = None,
        event_name: Optional[str] = None,
        metric_name: Optional[str] = None,
    ) -> Optional[float]:
        """Standard SQL aggregate over location-profile rows.

        *"including requesting standard SQL aggregate operations such as
        minimum, maximum, mean, standard deviation and others"* (§5.2).
        """
        op = operation.lower()
        if op == "mean":
            op = "avg"
        if op not in self._AGGREGATES:
            raise ValueError(
                f"unsupported aggregate {operation!r}; use one of "
                f"{self._AGGREGATES}"
            )
        if column not in (
            "inclusive", "exclusive", "num_calls", "num_subrs",
            "inclusive_per_call", "inclusive_percentage", "exclusive_percentage",
        ):
            raise ValueError(f"unknown profile column {column!r}")
        trial_id = self._selected_trial_id(trial)
        sql = (
            f"SELECT {op}(p.{column}) FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "JOIN metric m ON p.metric = m.id WHERE e.trial = ?"
        )
        params: list[Any] = [trial_id]
        event_name = event_name or self.selection.event_name
        metric_name = metric_name or self.selection.metric_name
        if event_name is not None:
            sql += " AND e.name = ?"
            params.append(event_name)
        if metric_name is not None:
            sql += " AND m.name = ?"
            params.append(metric_name)
        value = self.connection.scalar(sql, params)
        return None if value is None else float(value)

    # ------------------------------------------------------------------ loading --

    @_traced("session.load_datasource")
    def load_datasource(self, trial: Trial | int | None = None) -> DataSource:
        """Materialise a stored trial back into a DataSource."""
        trial_id = self._selected_trial_id(trial)
        if self.connection.scalar(
            "SELECT count(*) FROM trial WHERE id = ?", (trial_id,)
        ) == 0:
            raise LookupError(f"no trial id {trial_id} in this database")
        source = DataSource()
        if "xml_metadata" in {
            c.lower() for c in self.connection.column_names("trial")
        }:
            blob = self.connection.scalar(
                "SELECT xml_metadata FROM trial WHERE id = ?", (trial_id,)
            )
            if blob:
                import json

                try:
                    source.metadata.update(json.loads(blob))
                except (ValueError, TypeError):
                    pass  # deployment stored non-JSON content; ignore
        metric_rows = self.connection.query(
            "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id",
            (trial_id,),
        )
        metric_index: dict[int, int] = {}
        for db_id, name, derived in metric_rows:
            metric = source.add_metric(name, derived=bool(derived))
            metric.db_id = db_id
            metric_index[db_id] = metric.index
        event_rows = self.connection.query(
            "SELECT id, name, group_name FROM interval_event WHERE trial = ? "
            "ORDER BY id",
            (trial_id,),
        )
        event_index: dict[int, Any] = {}
        for db_id, name, group_name in event_rows:
            event = source.add_interval_event(name, group_name or "TAU_DEFAULT")
            event.db_id = db_id
            event_index[db_id] = event
        location_columns = self._read_location_rows(metric_index)
        for metric_id, columns in zip(metric_index, location_columns):
            m = metric_index[metric_id]
            for event_id, node, ctx, thr, inc, exc, calls, subrs in zip(*columns):
                thread = source.add_thread(node, ctx, thr)
                profile = thread.get_or_create_function_profile(event_index[event_id])
                profile.set_inclusive(m, inc)
                profile.set_exclusive(m, exc)
                if m == 0:
                    profile.calls = calls
                    profile.subroutines = subrs
        atomic_rows = self.connection.query(
            "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id",
            (trial_id,),
        )
        atomic_index = {}
        for db_id, name, group_name in atomic_rows:
            event = source.add_atomic_event(name, group_name or "TAU_DEFAULT")
            event.db_id = db_id
            atomic_index[db_id] = event
        if atomic_index:
            alp_rows = self.connection.query(
                "SELECT p.atomic_event, p.node, p.context, p.thread, "
                "p.sample_count, p.maximum_value, p.minimum_value, "
                "p.mean_value, p.standard_deviation "
                "FROM atomic_location_profile p "
                "JOIN atomic_event a ON p.atomic_event = a.id WHERE a.trial = ?",
                (trial_id,),
            )
            for event_id, node, ctx, thr, count, vmax, vmin, mean, std in alp_rows:
                thread = source.add_thread(node, ctx, thr)
                up = thread.get_or_create_user_event_profile(atomic_index[event_id])
                up.set_summary(count, vmax, vmin, mean, stddev=std)
        source.generate_statistics()
        return source

    @_traced("session.load_columnar")
    def load_columnar(self, trial: Trial | int | None = None) -> ColumnarTrial:
        """Materialise a stored trial as a :class:`ColumnarTrial`.

        The vectorised twin of :meth:`load_datasource`, read through
        the same per-metric probes, as columns: numpy assembles the
        arrays (events placed by ``searchsorted``, threads numbered by
        one ``unique`` over every metric's rows) with no per-row Python
        and no per-profile objects, which is far faster and smaller at
        the paper's 1.6M-data-point scale.  Threads and events keep
        :meth:`load_datasource`'s order (threads as they first appear,
        events by id), so per-thread vectors line up with its objects.
        PerfExplorer's analyses consume this form.
        """
        import numpy as np

        from ..model.columnar import ColumnarTrial

        trial_id = self._selected_trial_id(trial)
        conn = self.connection
        metric_rows = conn.query(
            "SELECT id, name FROM metric WHERE trial = ? ORDER BY id",
            (trial_id,),
        )
        event_rows = conn.query(
            "SELECT id, name, group_name FROM interval_event WHERE trial = ? "
            "ORDER BY id",
            (trial_id,),
        )
        if not metric_rows or not event_rows:
            if conn.scalar(
                "SELECT count(*) FROM trial WHERE id = ?", (trial_id,)
            ) == 0:
                raise LookupError(f"no trial id {trial_id} in this database")
            raise ValueError(f"trial {trial_id} has no stored profile data")
        blocks = list(self._read_location_rows([r[0] for r in metric_rows]))
        ids, nodes, contexts, threads = (
            np.concatenate([np.asarray(b[i], dtype=np.int64) for b in blocks])
            for i in range(4)
        )
        t_index, triples = _thread_index(nodes, contexts, threads)
        e_index = _event_positions(
            np.array([r[0] for r in event_rows], dtype=np.int64), ids
        )
        columnar = ColumnarTrial.allocate(
            event_names=[r[1] for r in event_rows],
            metric_names=[r[1] for r in metric_rows],
            # As Python ints, which allocate's int32 cast refuses beyond
            # range instead of wrapping.
            thread_triples=triples.tolist(),
            event_groups=[r[2] or "TAU_DEFAULT" for r in event_rows],
        )
        stop = 0
        for m, (_e, _n, _c, _t, inc, exc, calls, subrs) in enumerate(blocks):
            start, stop = stop, stop + len(inc)
            at = (t_index[start:stop], e_index[start:stop])
            columnar.inclusive[m][at] = np.asarray(inc, dtype=np.float64)
            columnar.exclusive[m][at] = np.asarray(exc, dtype=np.float64)
            if m == 0:
                columnar.calls[at] = np.asarray(calls, dtype=np.float64)
                columnar.subroutines[at] = np.asarray(subrs, dtype=np.float64)
        return columnar

    def _read_location_rows(
        self, metric_ids: Iterable[int]
    ) -> Iterator[list[Sequence[Any]]]:
        """Each metric's interval_location_profile rows, one probe each.

        A metric id belongs to exactly one trial, so ``WHERE metric = ?``
        reads exactly that trial's rows through ``idx_ilp_metric``: no
        JOIN against interval_event and no scan of other trials' rows.
        Rows come metric by metric, each in rowid (insertion) order —
        the order a scan of the whole table meets a trial's rows in —
        as columns (:meth:`DBConnection.query_columns`): event id, node,
        context, thread, inclusive, exclusive, calls, subroutines.
        """
        for metric_id in metric_ids:
            yield self.connection.query_columns(
                "SELECT interval_event, node, context, thread, inclusive, "
                "exclusive, num_calls, num_subrs "
                "FROM interval_location_profile WHERE metric = ?",
                (metric_id,),
            )

    # ------------------------------------------------------------------ derived --

    def save_derived_metric(
        self,
        name: str,
        expression: str,
        trial: Trial | int | None = None,
    ) -> int:
        """Compute a derived metric on a *stored* trial and save it.

        Paper §4: *"The Trial object also has support for adding new,
        possibly derived, metrics to an existing trial in the
        database."*  The source metric rows are fetched, combined per
        (event, node, context, thread) with :mod:`derived_expr`, and the
        result inserted as a new METRIC plus its location profiles and
        summaries.
        """
        trial_id = self._selected_trial_id(trial)
        conn = self.connection
        existing = {
            row[1]: row[0]
            for row in conn.query(
                "SELECT id, name FROM metric WHERE trial = ?", (trial_id,)
            )
        }
        if name in existing:
            raise ValueError(f"metric {name!r} already exists on trial {trial_id}")
        needed = metric_names_in(expression)
        for metric_name in needed:
            if metric_name not in existing:
                raise ValueError(
                    f"expression references unknown metric {metric_name!r}"
                )
        # Pull the needed metrics' rows keyed by location.
        inclusive: dict[tuple, dict[str, float]] = {}
        exclusive: dict[tuple, dict[str, float]] = {}
        base: dict[tuple, tuple] = {}
        for metric_name in needed:
            rows = conn.query(
                "SELECT p.interval_event, p.node, p.context, p.thread, "
                "p.inclusive, p.exclusive, p.num_calls, p.num_subrs "
                "FROM interval_location_profile p WHERE p.metric = ?",
                (existing[metric_name],),
            )
            for event_id, node, ctx, thr, inc, exc, calls, subrs in rows:
                key = (event_id, node, ctx, thr)
                inclusive.setdefault(key, {})[metric_name] = inc
                exclusive.setdefault(key, {})[metric_name] = exc
                base[key] = (calls, subrs)
        metric_id = conn.insert(
            "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 1)",
            (trial_id, name),
        )
        out_rows = []
        for key, inc_values in inclusive.items():
            exc_values = exclusive[key]
            calls, subrs = base[key]
            inc = evaluate_metric_expression(expression, lambda n: inc_values[n])
            exc = evaluate_metric_expression(expression, lambda n: exc_values[n])
            event_id, node, ctx, thr = key
            out_rows.append(
                (
                    event_id, node, ctx, thr, metric_id,
                    inc, 0.0, exc, 0.0,
                    inc / calls if calls else 0.0, calls, subrs,
                )
            )
        conn.executemany(
            f"INSERT INTO interval_location_profile ({_ILP_COLUMNS}) "
            f"VALUES ({_ILP_PLACEHOLDERS})",
            out_rows,
        )
        # summaries for the derived metric
        conn.execute(
            f"INSERT INTO interval_total_summary ({_SUMMARY_COLUMNS}) "
            "SELECT interval_event, metric, sum(inclusive), 0, sum(exclusive), 0, "
            "0, sum(num_calls), sum(num_subrs) "
            "FROM interval_location_profile WHERE metric = ? "
            "GROUP BY interval_event, metric",
            (metric_id,),
        )
        n_threads = conn.scalar(
            "SELECT count(DISTINCT node || '.' || context || '.' || thread) "
            "FROM interval_location_profile WHERE metric = ?",
            (metric_id,),
        ) or 1
        conn.execute(
            f"INSERT INTO interval_mean_summary ({_SUMMARY_COLUMNS}) "
            "SELECT interval_event, metric, sum(inclusive) / ?, 0, "
            "sum(exclusive) / ?, 0, 0, sum(num_calls) / ?, sum(num_subrs) / ? "
            "FROM interval_location_profile WHERE metric = ? "
            "GROUP BY interval_event, metric",
            (n_threads, n_threads, n_threads, n_threads, metric_id),
        )
        conn.commit()
        return metric_id


def _event_positions(event_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each of ``ids``' position in the ascending ``event_ids``; an id
    not among them (a row of another trial's event) raises KeyError."""
    import numpy as np

    positions = np.searchsorted(event_ids, ids)
    found = event_ids[np.minimum(positions, len(event_ids) - 1)] == ids
    if not found.all():
        raise KeyError(int(ids[np.argmin(found)]))
    return positions


def _thread_index(
    nodes: np.ndarray, contexts: np.ndarray, threads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Number each row's (node, context, thread) triple by the triple's
    first appearance; returns the per-row numbers and the distinct
    triples in that order."""
    import numpy as np

    columns = (nodes, contexts, threads)
    if not len(nodes):
        return np.zeros(0, dtype=np.intp), np.zeros((0, 3), dtype=np.int64)
    lows = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    if spans[0] * spans[1] * spans[2] <= np.iinfo(np.int64).max:
        # One int64 key per triple: a 1-D unique is ~7x faster.
        n, c, t = (column - low for column, low in zip(columns, lows))
        keys = (n * spans[1] + c) * spans[2] + t
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(
            np.column_stack(columns), axis=0, return_index=True,
            return_inverse=True,
        )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    rows = first[order]
    return number[inverse.reshape(-1)], np.column_stack(
        [column[rows] for column in columns]
    )


def _location_rows(
    columnar: ColumnarTrial, m: int, metric_id: int, event_ids: list[int]
) -> Iterable[tuple]:
    """Adapt ColumnarTrial.iter_location_rows to database event/metric ids."""
    for row in columnar.iter_location_rows(m):
        event_index = row[0]
        yield (event_ids[event_index],) + row[1:4] + (metric_id,) + row[4:]


def _location_rows_bulk(
    columnar: ColumnarTrial, m: int, metric_id: int, event_ids: list[int]
) -> list[tuple]:
    """Vectorised interval_location_profile rows for one metric.

    Same 12-column layout as ``_location_rows`` but assembled with numpy
    flattening and one ``zip`` — no per-cell Python ``float()`` calls,
    which dominate ingest time at 4K+ ranks.
    """
    import numpy as np

    inc = columnar.inclusive[m]
    n_threads, n_events = inc.shape
    triples = columnar.thread_triples
    total = n_threads * n_events
    event_id_column = np.tile(np.asarray(event_ids, dtype=np.int64), n_threads)
    return list(zip(
        event_id_column.tolist(),
        np.repeat(triples[:, 0], n_events).tolist(),
        np.repeat(triples[:, 1], n_events).tolist(),
        np.repeat(triples[:, 2], n_events).tolist(),
        [metric_id] * total,
        inc.ravel().tolist(),
        columnar.inclusive_percent(m).ravel().tolist(),
        columnar.exclusive[m].ravel().tolist(),
        columnar.exclusive_percent(m).ravel().tolist(),
        columnar.inclusive_per_call(m).ravel().tolist(),
        columnar.calls.ravel().tolist(),
        columnar.subroutines.ravel().tolist(),
    ))

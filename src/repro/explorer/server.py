"""The PerfExplorer analysis server (Figure 3).

*"The client makes requests to an analysis server back end, which is
integrated with a performance database, using PerfDMF. ... the analysis
server selects the data of interest, gets the relevant profile data and
hands it off to an analysis application ... the results are saved to
the database, using the PerfDMF API."*

The server owns a :class:`PerfDMFSession`, an analysis backend (the R
substitute), and a :class:`ResultStore`.  Requests are dispatched by
method name; each handler touches the database only through the PerfDMF
API, never raw SQL — that separation is the Figure 3 architecture.
"""

from __future__ import annotations

import base64
import time
from typing import Any, Optional

from repro.obs.metrics import registry as _registry

from ..core.api.entities import Trial
from ..core.model import ColumnarTrial
from ..core.session.dbsession import PerfDMFSession
from ..core.toolkit.stats import event_values
from .charts import (
    correlation_matrix, group_fraction_chart, imbalance_chart, speedup_chart,
)
from .clustering import cluster_trial, summarize_clusters
# The serving core lives in eventloop.py; callers import it from here.
from .eventloop import SocketServer
from .protocol import READ_ONLY_METHODS
from .results import ResultStore
from .rproxy import AnalysisBackend, NumpyAnalysisBackend

#: Methods a read-only replica server will dispatch: every read-only
#: analysis method plus the replication introspection endpoint.
REPLICA_SAFE_METHODS = READ_ONLY_METHODS | {"replication_status"}


class AnalysisServer:
    """Dispatches PerfExplorer requests against one PerfDMF database.

    ``read_only=True`` turns the server into a replica front end: only
    :data:`REPLICA_SAFE_METHODS` are dispatched, everything else is
    rejected before touching the session (replicas apply writes solely
    through WAL replay, never through the RPC surface).  ``replica``
    optionally attaches the :class:`~repro.db.minisql.replica.Replica`
    feeding this server so ``replication_status`` and the health
    endpoint can report lag.
    """

    def __init__(
        self,
        database_url: str,
        backend: Optional[AnalysisBackend] = None,
        read_only: bool = False,
        replica: Optional[object] = None,
    ):
        # A read-only front end must not write — not even idempotent
        # schema DDL: a replica's schema arrives via checkpoint + WAL
        # replay, and any local write would diverge from the primary.
        self.session = PerfDMFSession(database_url, create=not read_only)
        self.backend = backend or NumpyAnalysisBackend()
        self.results = ResultStore(self.session)
        self.read_only = read_only
        self.replica = replica
        self._shipper = None
        self._handlers = {
            "ping": self._ping,
            "list_applications": self._list_applications,
            "list_experiments": self._list_experiments,
            "list_trials": self._list_trials,
            "list_metrics": self._list_metrics,
            "list_events": self._list_events,
            "cluster_trial": self._cluster_trial,
            "describe_event": self._describe_event,
            "correlate_events": self._correlate_events,
            "list_analyses": self._list_analyses,
            "get_analysis": self._get_analysis,
            "run_workflow": self._run_workflow,
            "speedup_chart": self._speedup_chart,
            "correlation_matrix": self._correlation_matrix,
            "group_fraction_chart": self._group_fraction_chart,
            "imbalance_chart": self._imbalance_chart,
            "get_stats": self._get_stats,
            "repl_snapshot": self._repl_snapshot,
            "wal_ship": self._wal_ship,
            "replication_status": self._replication_status,
            "server_load": self._server_load,
        }
        #: Set by the socket front end at start(): a zero-argument
        #: callable reporting its live dispatch load (see _server_load).
        self.load_probe = None

    # -- dispatch ----------------------------------------------------------------

    def handle_request(self, method: str, params: dict[str, Any]) -> Any:
        handler = self._handlers.get(method)
        if handler is None:
            raise ValueError(f"unknown method {method!r}")
        if self.read_only and method not in REPLICA_SAFE_METHODS:
            raise PermissionError(
                f"read-only replica: method {method!r} not allowed"
            )
        return handler(**params)

    # -- handlers -------------------------------------------------------------------

    def _ping(self) -> str:
        return "pong"

    def _list_applications(self) -> list[dict[str, Any]]:
        return [
            {"id": a.id, "name": a.name} for a in self.session.get_application_list()
        ]

    # Handlers pass their filters as arguments and never touch the
    # session's selection: requests run concurrently on executor threads
    # and share this one session.

    def _list_experiments(self, application: int) -> list[dict[str, Any]]:
        return [
            {"id": e.id, "name": e.name}
            for e in self.session.get_experiment_list(application)
        ]

    def _list_trials(self, experiment: int) -> list[dict[str, Any]]:
        return [
            {
                "id": t.id,
                "name": t.name,
                "node_count": t.get("node_count"),
            }
            for t in self.session.get_trial_list(experiment)
        ]

    def _list_metrics(self, trial: int) -> list[str]:
        return self.session.get_metrics(trial)

    def _list_events(self, trial: int) -> list[dict[str, Any]]:
        return self.session.get_interval_events(trial)

    def _load_trial(self, trial: Trial | int) -> ColumnarTrial:
        """One stored trial's profile data, as every analysis handler
        reads it.

        ``load_columnar`` refuses a trial row with no stored metrics or
        no events.  The handlers read such a trial as one with no
        threads, as they read the empty DataSource it used to load as,
        so its replies and errors stay what they were."""
        try:
            return self.session.load_columnar(trial)
        except ValueError:
            metrics = self.session.get_metrics(trial)
            events = self.session.get_interval_events(trial)
            if metrics and events:
                raise
            return ColumnarTrial.allocate(
                event_names=[e["name"] for e in events],
                metric_names=metrics,
                thread_triples=[],
                event_groups=[e["group"] or "TAU_DEFAULT" for e in events],
            )

    def _cluster_trial(
        self,
        trial: int,
        k: Optional[int] = None,
        metric_name: Optional[str] = None,
        max_k: int = 6,
        seed: int = 0,
        save: bool = True,
        method: str = "kmeans",
    ) -> dict[str, Any]:
        """The paper's flagship operation: select data, cluster, save."""
        source = self._load_trial(trial)
        metric_index = 0
        if metric_name is not None:
            names = source.metric_names
            if metric_name not in names:
                raise ValueError(f"trial {trial} has no metric {metric_name!r}")
            metric_index = names.index(metric_name)
        if method == "kmeans":
            result = cluster_trial(
                source, k=k, metric=metric_index, max_k=max_k, seed=seed
            )
        elif method == "hierarchical":
            from .clustering import hierarchical_cluster

            if k is None:
                raise ValueError("hierarchical clustering requires explicit k")
            result = hierarchical_cluster(source, k=k, metric=metric_index)
        else:
            raise ValueError(
                f"unknown clustering method {method!r}; "
                "use 'kmeans' or 'hierarchical'"
            )
        settings_id = None
        if save:
            settings_id = self.results.save_cluster_result(
                trial, result,
                parameters={
                    "k": k, "metric": metric_name, "max_k": max_k,
                    "seed": seed, "method": method,
                },
            )
        return {
            "k": result.k,
            "sizes": result.sizes,
            "silhouette": result.silhouette,
            "labels": result.labels.tolist(),
            "summary": summarize_clusters(result),
            "settings_id": settings_id,
        }

    def _describe_event(
        self, trial: int, event: str, metric_name: Optional[str] = None
    ) -> dict[str, float]:
        source = self._load_trial(trial)
        metric_index = 0
        if metric_name is not None:
            metric_index = source.metric_names.index(metric_name)
        values = event_values(source, event, metric_index)
        return self.backend.describe(values)

    def _correlate_events(
        self, trial: int, event_x: str, event_y: str
    ) -> dict[str, float]:
        source = self._load_trial(trial)
        x = event_values(source, event_x)
        y = event_values(source, event_y)
        return self.backend.correlate(x, y)

    def _run_workflow(self, steps: list[dict[str, Any]]) -> dict[str, Any]:
        """Execute a scripted analysis workflow server-side.

        Trials held in slots stay on the server; only JSON-serialisable
        slots come back over the wire.
        """
        from .workflow import run_workflow

        slots = run_workflow(self.session, steps)
        return {
            name: value
            for name, value in slots.items()
            if not hasattr(value, "interval_events")
        }

    def _experiment_trials(
        self, experiment: int
    ) -> list[tuple[int, ColumnarTrial]]:
        """Load every trial of an experiment as (processors, ColumnarTrial)."""
        return [
            (trial.get("node_count") or 1, self._load_trial(trial))
            for trial in self.session.get_trial_list(experiment)
        ]

    def _speedup_chart(
        self, experiment: int, events: Optional[list[str]] = None
    ) -> dict[str, Any]:
        trials = self._experiment_trials(experiment)
        if len(trials) < 2:
            raise ValueError(
                f"experiment {experiment} has {len(trials)} trial(s); "
                "speedup needs >= 2"
            )
        return speedup_chart(trials, events)

    def _correlation_matrix(
        self, trial: int, events: Optional[list[str]] = None
    ) -> dict[str, Any]:
        return correlation_matrix(self._load_trial(trial), events)

    def _group_fraction_chart(self, experiment: int) -> dict[str, Any]:
        return group_fraction_chart(self._experiment_trials(experiment))

    def _imbalance_chart(self, trial: int, top: int = 10) -> dict[str, Any]:
        return imbalance_chart(self._load_trial(trial), top=top)

    def _server_load(self) -> dict[str, Any]:
        """Lightweight load probe for client-side least-loaded routing.

        Deliberately a separate method from ``replication_status`` (whose
        payload is a stable contract) and far cheaper than ``get_stats``:
        three integers, no registry snapshot, no db counters."""
        probe = self.load_probe
        if probe is None:
            return {"in_flight": 0, "queued": 0, "connections": 0}
        return probe()

    def _get_stats(self) -> dict[str, Any]:
        """The server's live metrics registry (plus its database
        counters), for ``repro stats --server`` and remote monitoring."""
        self.session.connection.stats()  # publish db counters as gauges
        # Request accounting is incremented after dispatch; register the
        # instruments up front so even the first snapshot carries them.
        _registry.counter("server.requests")
        _registry.histogram("server.request_seconds")
        _registry.counter("server.admission_shed_total")
        return {"ts": time.time(), "metrics": _registry.snapshot()}

    def _list_analyses(self, trial: Optional[int] = None) -> list[dict[str, Any]]:
        return [
            {"id": i, "name": n, "method": m}
            for i, n, m in self.results.list_analyses(trial)
        ]

    def _get_analysis(self, settings_id: int) -> dict[str, Any]:
        return self.results.load_analysis(settings_id)

    # -- replication ----------------------------------------------------------------

    def _database(self):
        """The underlying MiniSQL Database, if this session runs on one."""
        raw = getattr(self.session.connection, "_raw", None)
        return getattr(raw, "_database", None)

    def _get_shipper(self):
        if self._shipper is None:
            from repro.db.minisql.replica import WalShipper

            database = self._database()
            if database is None or database.wal is None:
                raise ValueError(
                    "WAL shipping requires a WAL-backed MiniSQL database "
                    "(connect with minisql://...?wal=...)"
                )
            self._shipper = WalShipper(database)
        return self._shipper

    def _repl_snapshot(self) -> dict[str, Any]:
        """Bootstrap payload for a new replica: checkpoint script + LSNs."""
        return self._get_shipper().snapshot()

    def _wal_ship(
        self,
        after_lsn: int,
        replica_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict[str, Any]:
        """Ship WAL frames past ``after_lsn`` (base64, CRC framing intact)."""
        shipper = self._get_shipper()
        if limit is None:
            out = shipper.fetch(after_lsn, replica_id=replica_id)
        else:
            out = shipper.fetch(after_lsn, replica_id=replica_id, limit=limit)
        frames = out.pop("frames", None)
        if frames is not None:
            out["frames_b64"] = base64.b64encode(frames).decode("ascii")
        return out

    def _replication_status(self) -> dict[str, Any]:
        if self.replica is not None:
            return self.replica.status()
        database = self._database()
        if database is not None and database.wal is not None:
            return self._get_shipper().status()
        return {"role": "standalone"}


__all__ = ["AnalysisServer", "SocketServer", "REPLICA_SAFE_METHODS"]

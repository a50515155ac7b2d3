"""The abstract ``DataSession`` — PerfDMF's query/management interface.

Paper §4: *"The DataSession object forms the core abstract object by
which interactions with data sources take place. ... Once the session
has been initialized, a call to getApplicationList() will return a list
of Application objects, from which the desired application is selected
and set as a filter for subsequent queries. ... Once an object is
selected, all further query operations are filtered based on that
particular context."*

Two concrete sessions exist, mirroring the paper's two access methods:

* :class:`~repro.core.session.filesession.FileDataSession` — flat-file
  profiles straight from profiling tools (no database needed);
* :class:`~repro.core.session.dbsession.PerfDMFSession` — the
  database-only interface for selective queries without loading whole
  trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..api.entities import Application, Experiment, Trial
from ..model import DataSource


@dataclass
class Selection:
    """The session's current query filters."""

    application_id: Optional[int] = None
    experiment_id: Optional[int] = None
    trial_id: Optional[int] = None
    node: Optional[int] = None
    context: Optional[int] = None
    thread: Optional[int] = None
    metric_name: Optional[str] = None
    event_name: Optional[str] = None

    def clear(self) -> None:
        for f in (
            "application_id", "experiment_id", "trial_id",
            "node", "context", "thread", "metric_name", "event_name",
        ):
            setattr(self, f, None)


class DataSession:
    """Abstract base; concrete sessions implement the ``_do`` methods."""

    def __init__(self) -> None:
        self.selection = Selection()

    # -- selection (filters for all subsequent queries) ------------------------------

    def set_application(self, application: Application | int | None) -> None:
        self.selection.application_id = _entity_id(application)
        # narrowing resets the finer-grained selections
        self.selection.experiment_id = None
        self.selection.trial_id = None

    def set_experiment(self, experiment: Experiment | int | None) -> None:
        self.selection.experiment_id = _entity_id(experiment)
        self.selection.trial_id = None

    def set_trial(self, trial: Trial | int | None) -> None:
        self.selection.trial_id = _entity_id(trial)

    def set_node(self, node: Optional[int]) -> None:
        self.selection.node = node

    def set_context(self, context: Optional[int]) -> None:
        self.selection.context = context

    def set_thread(self, thread: Optional[int]) -> None:
        self.selection.thread = thread

    def set_metric(self, metric_name: Optional[str]) -> None:
        self.selection.metric_name = metric_name

    def set_event(self, event_name: Optional[str]) -> None:
        self.selection.event_name = event_name

    def reset_selection(self) -> None:
        self.selection.clear()

    # -- queries (to implement) ------------------------------------------------------

    def get_application_list(self) -> list[Application]:
        raise NotImplementedError

    def get_experiment_list(
        self, application: Application | int | None = None
    ) -> list[Experiment]:
        """Experiments of ``application``, else of the selected one."""
        raise NotImplementedError

    def get_trial_list(
        self, experiment: Experiment | int | None = None
    ) -> list[Trial]:
        """Trials of ``experiment``, else of the selected experiment or
        application."""
        raise NotImplementedError

    def get_metrics(self) -> list[str]:
        """Metric names of the selected trial."""
        raise NotImplementedError

    def get_interval_events(self) -> list[dict[str, Any]]:
        """Interval events of the selected trial (id/name/group dicts)."""
        raise NotImplementedError

    def get_atomic_events(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def load_datasource(self) -> DataSource:
        """Materialise the selected trial as an in-memory DataSource."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "DataSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _entity_id(value) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, int):
        return value
    if getattr(value, "id", None) is None:
        raise ValueError("entity has not been saved; call save() first")
    return value.id

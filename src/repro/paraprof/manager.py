"""ParaProf's database-manager role: feeding the shared archive.

Paper §5.1: *"ParaProf can also be used to input data into the database
... providing a graphical user interface which analysts can use to
store and view performance profiles in a shared data repository."*

:class:`ArchiveManager` is that ingestion/retrieval surface: import any
supported profile format into an application/experiment/trial slot,
list the archive, and pull trials back out.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from ..core.model import DataSource
from ..core.session.dbsession import PerfDMFSession
from ..core.api.entities import Application, Experiment, Trial


def load_profile(
    target: str | os.PathLike, format_name: Optional[str] = None
) -> DataSource:
    """Parse ``target`` with the format registry.  The registry (every
    importer) loads on the first call, so a command that stores no
    profile never imports it."""
    from ..core.io_.registry import load_profile as registry_load_profile

    return registry_load_profile(target, format_name)


class ArchiveManager:
    """Store/retrieve profiles in a shared PerfDMF archive."""

    def __init__(self, session: PerfDMFSession | str):
        if isinstance(session, str):
            session = PerfDMFSession(session)
        self.session = session

    # -- ingestion -------------------------------------------------------------

    def import_profile(
        self,
        target: str | os.PathLike | DataSource,
        application: str,
        experiment: str,
        trial: str,
        format_name: Optional[str] = None,
        **trial_fields: Any,
    ) -> Trial:
        """Parse ``target`` (any supported format) and store it.

        Creates the application and experiment rows on first use, so an
        analyst can drop trials from different profiling tools into one
        shared archive — the Figure 2 scenario.
        """
        source = (
            target
            if isinstance(target, DataSource)
            else load_profile(target, format_name)
        )
        app = self.session.get_or_create_application(application)
        exp = self._get_or_create_experiment(app, experiment)
        return self.session.save_trial(source, exp, trial, **trial_fields)

    def _get_or_create_experiment(self, app: Application, name: str) -> Experiment:
        self.session.set_application(app)
        for exp in self.session.get_experiment_list():
            if exp.name == name:
                return exp
        return self.session.create_experiment(app, name)

    # -- retrieval ----------------------------------------------------------------

    def load_trial(self, trial: Trial | int) -> DataSource:
        return self.session.load_datasource(trial)

    def tree(self) -> dict[str, dict[str, list[str]]]:
        """The archive as {application: {experiment: [trial, ...]}}."""
        out: dict[str, dict[str, list[str]]] = {}
        self.session.reset_selection()
        for app in self.session.get_application_list():
            self.session.set_application(app)
            experiments: dict[str, list[str]] = {}
            for exp in self.session.get_experiment_list():
                self.session.set_experiment(exp)
                experiments[exp.name or "?"] = [
                    t.name or "?" for t in self.session.get_trial_list()
                ]
            out[app.name or "?"] = experiments
        self.session.reset_selection()
        return out

    def find_trial(
        self, application: str, experiment: str, trial: str
    ) -> Optional[Trial]:
        self.session.reset_selection()
        app = self.session.get_application(application)
        if app is None:
            return None
        self.session.set_application(app)
        for exp in self.session.get_experiment_list():
            if exp.name != experiment:
                continue
            self.session.set_experiment(exp)
            for t in self.session.get_trial_list():
                if t.name == trial:
                    self.session.reset_selection()
                    return t
        self.session.reset_selection()
        return None

"""The ParaProf archive browser: the Figure 2 tree + display windows.

Renders the application → experiment → trial tree of a PerfDMF archive
(the left pane of Figure 2) and opens "windows" (text displays) on
selected trials, exactly the workflow the paper demonstrates with
HPMToolkit, mpiP and TAU trials side by side in one database.
"""

from __future__ import annotations

from typing import Optional

from ..core.model import DataSource
from .manager import ArchiveManager


class ProfileBrowser:
    """Interactive-style browser over a PerfDMF archive."""

    def __init__(self, manager: ArchiveManager):
        self.manager = manager
        self._open_trial: Optional[DataSource] = None
        self._open_label = ""

    # -- tree -------------------------------------------------------------------

    def render_tree(self) -> str:
        """The archive tree, ParaProf's left-hand pane."""
        tree = self.manager.tree()
        lines = ["Performance Data Archive"]
        for app_name, experiments in tree.items():
            lines.append(f"└─ {app_name}")
            for exp_name, trials in experiments.items():
                lines.append(f"   └─ {exp_name}")
                for trial_name in trials:
                    lines.append(f"      └─ {trial_name}")
        return "\n".join(lines)

    # -- selection -----------------------------------------------------------------

    def open_trial(self, application: str, experiment: str, trial: str) -> DataSource:
        """Load a trial from the archive into the browser."""
        record = self.manager.find_trial(application, experiment, trial)
        if record is None:
            raise LookupError(
                f"no trial {application}/{experiment}/{trial} in archive"
            )
        self._open_trial = self.manager.load_trial(record)
        self._open_label = f"{application}/{experiment}/{trial}"
        return self._open_trial

    @property
    def current(self) -> DataSource:
        if self._open_trial is None:
            raise RuntimeError("no trial open; call open_trial() first")
        return self._open_trial

    # -- windows ----------------------------------------------------------------------

    # The display functions load the analysis toolkit (numpy), so each
    # view imports its own on first use: browsing the tree needs none.

    def show_aggregate(self, metric: int | None = None, top: int = 20) -> str:
        from .displays import aggregate_view

        return f"[{self._open_label}]\n" + aggregate_view(self.current, metric, top)

    def show_thread(
        self, node: int, context: int = 0, thread_id: int = 0, metric: int | None = None
    ) -> str:
        from .displays import thread_profile_view

        return f"[{self._open_label}]\n" + thread_profile_view(
            self.current, node, context, thread_id, metric
        )

    def show_event(self, event_name: str, metric: int | None = None) -> str:
        from .displays import comparative_event_view

        return f"[{self._open_label}]\n" + comparative_event_view(
            self.current, event_name, metric
        )

    def show_summary(self, metric: int | None = None) -> str:
        from .displays import summary_text_view

        return f"[{self._open_label}]\n" + summary_text_view(self.current, metric)

    def show_userevents(self) -> str:
        from .displays import userevent_view

        return f"[{self._open_label}]\n" + userevent_view(self.current)

"""``repro.paraprof`` — ParaProf as a text-mode analyzer (paper §5.1).

Each name below loads its submodule on first access: listing an
archive needs the manager and the browser, not the displays, the
HTML report or the shell (and the analysis toolkit behind them).
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "barchart": ("bar_table", "format_value", "horizontal_bar"),
    "browser": ("ProfileBrowser",),
    "federate": ("synchronize", "transfer_trial"),
    "htmlreport": ("html_report", "write_html_report"),
    "callgraph": ("call_graph_dot", "call_graph_stats", "call_tree_view"),
    "shell": ("ParaProfShell", "run_shell"),
    "displays": (
        "aggregate_view", "comparative_event_view", "summary_text_view",
        "thread_profile_view", "userevent_view",
    ),
    "manager": ("ArchiveManager",),
})

__all__ = [
    "ArchiveManager", "ProfileBrowser",
    "aggregate_view", "thread_profile_view", "comparative_event_view",
    "summary_text_view", "userevent_view",
    "bar_table", "horizontal_bar", "format_value",
    "call_tree_view", "call_graph_dot", "call_graph_stats",
    "ParaProfShell", "run_shell",
    "transfer_trial", "synchronize",
    "html_report", "write_html_report",
]

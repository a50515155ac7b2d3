"""Text rendering of the trial call graph (ParaProf's callgraph window).

Requires callpath events (``a => b``) in the trial; the graph itself is
built by :func:`repro.core.model.build_call_graph`.  The display
annotates each call-tree node with its mean inclusive time and fraction
of the root, indented by depth::

    main                      100.0%     1.203 s
    ├─ solve                   62.1%   746.90 ms
    │  └─ MPI_Send()           11.4%   136.73 ms
    └─ io                      20.3%   244.21 ms
"""

from __future__ import annotations

from ..core.model import DataSource, build_call_graph
from ..core.model.events import CALLPATH_SEPARATOR
from ..core.toolkit.stats import event_statistics
from .barchart import format_value


def call_tree_view(
    source: DataSource, metric: int = 0, max_depth: int = 6
) -> str:
    """Render the callpath profile as an annotated tree."""
    callpath_events = [
        e for e in source.interval_events.values() if e.is_callpath()
    ]
    flat_roots = _find_roots(source)
    if not callpath_events and not flat_roots:
        return "(no callpath data in this trial)"

    # mean inclusive per full path (flat roots use their own name)
    mean_of: dict[str, float] = {}
    for event in source.interval_events.values():
        mean_of[event.name] = event_statistics(
            source, event.name, metric, inclusive=True
        ).mean

    # children per path prefix
    children: dict[str, list[str]] = {}
    for event in callpath_events:
        parent = event.parent_name
        if parent is not None:
            children.setdefault(parent, []).append(event.name)

    reference = max((mean_of.get(r, 0.0) for r in flat_roots), default=0.0)
    if reference <= 0:
        reference = max(mean_of.values(), default=1.0)

    lines: list[str] = []

    def emit(path: str, depth: int, prefix: str, is_last: bool) -> None:
        if depth > max_depth:
            return
        label = path.rsplit(CALLPATH_SEPARATOR, 1)[-1].strip()
        mean = mean_of.get(path, 0.0)
        pct = 100.0 * mean / reference if reference > 0 else 0.0
        connector = "" if depth == 0 else ("└─ " if is_last else "├─ ")
        text = f"{prefix}{connector}{label}"
        lines.append(f"{text:<44} {pct:5.1f}%  {format_value(mean):>12}")
        kids = sorted(
            children.get(path, []), key=lambda k: -mean_of.get(k, 0.0)
        )
        child_prefix = prefix if depth == 0 else prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(kids):
            emit(child, depth + 1, child_prefix, i == len(kids) - 1)

    for root in sorted(flat_roots, key=lambda r: -mean_of.get(r, 0.0)):
        emit(root, 0, "", True)
    return "\n".join(lines)


def _find_roots(source: DataSource) -> list[str]:
    """Flat events that never appear as callees in any callpath."""
    callees: set[str] = set()
    has_callpath = False
    for event in source.interval_events.values():
        if event.is_callpath():
            has_callpath = True
            for component in event.path_components()[1:]:
                callees.add(component)
    roots = [
        e.name
        for e in source.interval_events.values()
        if not e.is_callpath() and e.name not in callees
    ]
    if not has_callpath:
        return []
    return roots


def call_graph_dot(source: DataSource) -> str:
    """The call graph in Graphviz DOT form (for external rendering)."""
    graph = build_call_graph(source)
    lines = ["digraph callgraph {"]
    for node in graph.succ:
        lines.append(f'  "{node}";')
    for (a, b), paths in graph.edges.items():
        lines.append(f'  "{a}" -> "{b}" [label="{paths}"];')
    lines.append("}")
    return "\n".join(lines)


def call_graph_stats(source: DataSource) -> dict[str, float]:
    """Structural statistics of the call graph; ``depth`` is -1 when
    recursion makes it cyclic."""
    graph = build_call_graph(source)
    depth = graph.longest_path_length()
    return {
        "nodes": len(graph.succ),
        "edges": len(graph.edges),
        "depth": -1 if depth is None else depth,
        "is_dag": depth is not None,
    }

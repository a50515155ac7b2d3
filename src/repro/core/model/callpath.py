"""Callpath utilities.

TAU callpath profiles name events ``"main => solve => MPI_Send()"``.
These helpers reconstruct the call graph (a small stdlib digraph),
derive a flat profile from callpath data, and answer parent/child
queries — the machinery behind ParaProf's callgraph displays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .events import CALLPATH_SEPARATOR, IntervalEvent

if TYPE_CHECKING:  # pragma: no cover
    from .datasource import DataSource
    from .thread import Thread


def is_callpath_name(name: str) -> bool:
    return CALLPATH_SEPARATOR in name


def split_callpath(name: str) -> list[str]:
    """``"a => b => c"`` → ``["a", "b", "c"]``."""
    return [part.strip() for part in name.split(CALLPATH_SEPARATOR)]


def join_callpath(components: list[str]) -> str:
    return CALLPATH_SEPARATOR.join(components)


class CallGraph:
    """A trial's call graph: nodes are flat event names, and an edge
    (a, b) means a directly calls b somewhere in the trial.

    ``succ[a][b]`` is the edge's ``paths`` count: how many callpath
    events witness it.  Nodes, and each node's callees, keep the order
    in which they first appear, so :attr:`edges` runs grouped by caller
    in node order.
    """

    def __init__(self) -> None:
        self.succ: dict[str, dict[str, int]] = {}

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        """``(caller, callee) -> paths``."""
        return {
            (caller, callee): paths
            for caller, callees in self.succ.items()
            for callee, paths in callees.items()
        }

    def longest_path_length(self) -> Optional[int]:
        """Edges on the longest call chain, or None when recursion makes
        the graph cyclic.

        Kahn's sort: a node is placed once all its callers are, and its
        depth is one more than its deepest caller's.  Every edge counts
        one; ``paths`` is not a weight.
        """
        waiting = dict.fromkeys(self.succ, 0)
        for callees in self.succ.values():
            for callee in callees:
                waiting[callee] += 1
        ready = [node for node, count in waiting.items() if count == 0]
        depth = dict.fromkeys(self.succ, 0)
        placed = 0
        while ready:
            node = ready.pop()
            placed += 1
            for callee in self.succ[node]:
                depth[callee] = max(depth[callee], depth[node] + 1)
                waiting[callee] -= 1
                if waiting[callee] == 0:
                    ready.append(callee)
        if placed < len(self.succ):
            return None
        return max(depth.values(), default=0)


def build_call_graph(datasource: "DataSource") -> CallGraph:
    """Build the trial's call graph from its callpath events."""
    graph = CallGraph()
    succ = graph.succ
    for event in datasource.interval_events.values():
        components = split_callpath(event.name)
        for component in components:
            succ.setdefault(component, {})
        for caller, callee in zip(components, components[1:]):
            callees = succ[caller]
            callees[callee] = callees.get(callee, 0) + 1
    return graph


def callpath_depth(event: IntervalEvent) -> int:
    """Number of frames in the event's path (flat events have depth 1)."""
    return len(split_callpath(event.name))


def children_of(datasource: "DataSource", parent_path: str) -> list[IntervalEvent]:
    """Callpath events exactly one level below ``parent_path``."""
    prefix = parent_path.strip()
    depth = len(split_callpath(prefix)) + 1
    out = []
    for event in datasource.interval_events.values():
        if not event.is_callpath():
            continue
        if callpath_depth(event) != depth:
            continue
        if event.parent_name == prefix:
            out.append(event)
    return out


def flatten_callpaths(datasource: "DataSource") -> "DataSource":
    """Derive a flat profile from a callpath profile.

    For each leaf name, exclusive values and call counts sum over every
    path ending in that leaf; the flat inclusive value is the sum over
    *top-level occurrences only* (paths where the leaf first appears),
    approximated here by paths whose leaf does not appear earlier in the
    path — the standard way to avoid double-counting recursive frames.
    """
    from .datasource import DataSource

    flat = DataSource()
    for metric in datasource.metrics:
        flat.add_metric(metric.name, derived=metric.derived)
    for source_thread in datasource.all_threads():
        thread = flat.add_thread(*source_thread.triple)
        for profile in source_thread.function_profiles.values():
            components = split_callpath(profile.event.name)
            leaf = components[-1]
            event = flat.add_interval_event(leaf, group=profile.event.group)
            target = thread.get_or_create_function_profile(event)
            first_occurrence = leaf not in components[:-1]
            for m, inc, exc in profile.iter_metrics():
                target.set_exclusive(m, target.get_exclusive(m) + exc)
                if first_occurrence:
                    target.set_inclusive(m, target.get_inclusive(m) + inc)
            target.calls += profile.calls
            target.subroutines += profile.subroutines
    flat.generate_statistics()
    return flat


def root_events(datasource: "DataSource") -> list[IntervalEvent]:
    """Events that never appear as a callee (entry points like main)."""
    graph = build_call_graph(datasource)
    callees = {callee for _caller, callee in graph.edges}
    return [
        event for event in datasource.interval_events.values()
        if not event.is_callpath()
        and event.name in graph.succ and event.name not in callees
    ]

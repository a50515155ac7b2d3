"""The stdlib call graph answers exactly what the networkx one did.

The reference below is the networkx construction the call graph used
to be built with.  Random callpath trials, recursion and self-loops
included, must give the same nodes and edges in the same order, the
same ``paths`` counts, the same acyclicity and depth, and byte-identical
DOT text.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.model import DataSource, build_call_graph, split_callpath
from repro.core.model.callpath import join_callpath, root_events
from repro.paraprof import call_graph_dot, call_graph_stats
from repro.tau.apps import EVH1
from repro.tau.simulator import run_simulation

nx = pytest.importorskip("networkx")

NAMES = ["main", "solve", "MPI_Send()", "io", "riemann"]


def reference_graph(source: DataSource):
    graph = nx.DiGraph()
    for event in source.interval_events.values():
        components = split_callpath(event.name)
        for component in components:
            if not graph.has_node(component):
                graph.add_node(component)
        for caller, callee in zip(components, components[1:]):
            if graph.has_edge(caller, callee):
                graph[caller][callee]["paths"] += 1
            else:
                graph.add_edge(caller, callee, paths=1)
    return graph


def reference_dot(graph) -> str:
    lines = ["digraph callgraph {"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for a, b, data in graph.edges(data=True):
        lines.append(f'  "{a}" -> "{b}" [label="{data.get("paths", 1)}"];')
    lines.append("}")
    return "\n".join(lines)


def reference_stats(graph) -> dict:
    if graph.number_of_nodes() == 0:
        return {"nodes": 0, "edges": 0, "depth": 0, "is_dag": True}
    is_dag = nx.is_directed_acyclic_graph(graph)
    depth = nx.dag_longest_path_length(graph) if is_dag else -1
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "depth": depth,
        "is_dag": is_dag,
    }


def trial_of(paths: list[list[str]]) -> DataSource:
    source = DataSource()
    for path in paths:
        source.add_interval_event(join_callpath(path))
    return source


def assert_parity(source: DataSource) -> dict:
    graph = build_call_graph(source)
    reference = reference_graph(source)
    assert list(graph.succ) == list(reference.nodes)
    assert list(graph.edges.items()) == [
        ((a, b), data["paths"]) for a, b, data in reference.edges(data=True)
    ]
    expected = reference_stats(reference)
    stats = call_graph_stats(source)
    assert stats == expected
    assert type(stats["depth"]) is type(expected["depth"])
    assert call_graph_dot(source) == reference_dot(reference)
    roots = {n for n in reference.nodes if reference.in_degree(n) == 0}
    assert [e.name for e in root_events(source)] == [
        e.name for e in source.interval_events.values()
        if not e.is_callpath() and e.name in roots
    ]
    return stats


paths_strategy = st.lists(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(paths=paths_strategy)
@example(paths=[])
@example(paths=[["main"], ["main", "main"]])  # a self-loop
@example(paths=[["main", "solve", "main", "solve"]])  # recursion
@example(paths=[["io", "main"], ["main"], ["main", "solve", "riemann"]])
def test_random_trials_match_networkx(paths):
    assert_parity(trial_of(paths))


@settings(max_examples=100, deadline=None)
@given(paths=paths_strategy)
def test_acyclic_trials_match_networkx_depth(paths):
    """Paths that only call forward in ``NAMES`` make a DAG, so the depth
    comparison is not vacuous."""
    forward = [sorted(set(path), key=NAMES.index) for path in paths]
    stats = assert_parity(trial_of(forward))
    assert stats["is_dag"]


def test_simulated_callpath_trial_matches_networkx():
    app = EVH1(problem_size=0.05, timesteps=1)
    config = app.config(4)
    config.callpaths = True
    stats = assert_parity(run_simulation(app.kernel, config))
    assert stats["is_dag"] and stats["depth"] >= 2

"""CUBE 3.x export/import.

Paper §7: *"TAU already supports translation of parallel profiles to
CUBE format for presentation with the Expert tool"*, and integrating the
CUBE algebra is named future work.  This module provides the format
half of that integration (the algebra lives in
:mod:`repro.core.toolkit.cube_algebra`): structurally-faithful CUBE 3.0
XML with the metric / program(call-tree) / system(location) dimensions
and a severity matrix.

Mapping:

* each PerfDMF metric → a CUBE ``<metric>`` with exclusive severities,
  plus the standard ``visits`` metric carrying call counts;
* interval events → ``<region>``s; callpath events become proper
  ``<cnode>`` chains, flat events root-level cnodes;
* node/context/thread → machine/node/process/thread in the system tree;
* severity values are row-major per (metric, cnode) over all threads.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from pathlib import Path

from ..model import DataSource
from ..model.events import CALLPATH_SEPARATOR
from .base import ProfileParseError

VISITS_METRIC = "visits"


def export_cube(source: DataSource, path: str | os.PathLike) -> Path:
    """Write ``source`` as a CUBE 3.0 XML document."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(cube_string(source))
    return out


def cube_string(source: DataSource) -> str:
    # Imported here: xml.sax.saxutils loads urllib.request, http.client,
    # ssl and email, which every parse through the registry would pay.
    from xml.sax.saxutils import escape

    threads = list(source.all_threads())
    events = list(source.interval_events.values())
    parts: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    parts.append('<cube version="3.0">\n')
    parts.append("  <attr key=\"generator\" value=\"repro-perfdmf\"/>\n")

    # -- metric dimension ----------------------------------------------------
    parts.append("  <metrics>\n")
    for metric in source.metrics:
        parts.append(
            f'    <metric id="{metric.index}">\n'
            f"      <disp_name>{escape(metric.name)}</disp_name>\n"
            f"      <uniq_name>{escape(metric.name)}</uniq_name>\n"
            f"      <dtype>FLOAT</dtype>\n"
            f"    </metric>\n"
        )
    visits_id = len(source.metrics)
    parts.append(
        f'    <metric id="{visits_id}">\n'
        f"      <disp_name>{VISITS_METRIC}</disp_name>\n"
        f"      <uniq_name>{VISITS_METRIC}</uniq_name>\n"
        f"      <dtype>INTEGER</dtype>\n"
        f"    </metric>\n"
    )
    parts.append("  </metrics>\n")

    # -- program dimension (regions + call tree) --------------------------------
    parts.append("  <program>\n")
    region_id_of: dict[str, int] = {}
    for event in events:
        leaf = event.name.rsplit(CALLPATH_SEPARATOR, 1)[-1].strip()
        if leaf not in region_id_of:
            region_id_of[leaf] = len(region_id_of)
    for name, region_id in region_id_of.items():
        parts.append(
            f'    <region id="{region_id}" mod="" begin="-1" end="-1">\n'
            f"      <name>{escape(name)}</name>\n"
            f"    </region>\n"
        )
    # one cnode per event; parents resolved through callpath prefixes
    cnode_id_of = {event.name: i for i, event in enumerate(events)}
    children: dict[str | None, list] = {}
    for event in events:
        parent = event.parent_name
        if parent is not None and parent not in cnode_id_of:
            parent = None  # orphan path: promote to root
        children.setdefault(parent, []).append(event)

    def emit_cnode(event, indent: str) -> None:
        leaf = event.name.rsplit(CALLPATH_SEPARATOR, 1)[-1].strip()
        parts.append(
            f'{indent}<cnode id="{cnode_id_of[event.name]}" '
            f'calleeId="{region_id_of[leaf]}">\n'
        )
        for child in children.get(event.name, []):
            emit_cnode(child, indent + "  ")
        parts.append(f"{indent}</cnode>\n")

    for root in children.get(None, []):
        emit_cnode(root, "    ")
    parts.append("  </program>\n")

    # -- system dimension -----------------------------------------------------------
    parts.append("  <system>\n")
    parts.append('    <machine id="0"><name>simulated</name>\n')
    location_id_of: dict[tuple[int, int, int], int] = {}
    by_node: dict[int, list] = {}
    for thread in threads:
        by_node.setdefault(thread.node_id, []).append(thread)
    for node_id in sorted(by_node):
        parts.append(f'      <node id="{node_id}"><name>node{node_id}</name>\n')
        for thread in by_node[node_id]:
            location = len(location_id_of)
            location_id_of[thread.triple] = location
            parts.append(
                f'        <process id="{thread.context_id}">'
                f'<thread id="{thread.thread_id}">'
                f"<rank>{location}</rank></thread></process>\n"
            )
        parts.append("      </node>\n")
    parts.append("    </machine>\n")
    parts.append("  </system>\n")

    # -- severity matrix ------------------------------------------------------------
    order = sorted(location_id_of, key=location_id_of.get)  # type: ignore[arg-type]
    parts.append("  <severity>\n")
    for metric in source.metrics:
        parts.append(f'    <matrix metricId="{metric.index}">\n')
        for event in events:
            values = []
            for triple in order:
                thread = source.get_thread(*triple)
                profile = thread.function_profiles.get(event.index)
                values.append(
                    profile.get_exclusive(metric.index) if profile else 0.0
                )
            row = " ".join(f"{v:.17g}" for v in values)
            parts.append(
                f'      <row cnodeId="{cnode_id_of[event.name]}">{row}</row>\n'
            )
        parts.append("    </matrix>\n")
    parts.append(f'    <matrix metricId="{visits_id}">\n')
    for event in events:
        values = []
        for triple in order:
            thread = source.get_thread(*triple)
            profile = thread.function_profiles.get(event.index)
            values.append(profile.calls if profile else 0.0)
        row = " ".join(f"{v:g}" for v in values)
        parts.append(
            f'      <row cnodeId="{cnode_id_of[event.name]}">{row}</row>\n'
        )
    parts.append("    </matrix>\n")
    parts.append("  </severity>\n")
    parts.append("</cube>\n")
    return "".join(parts)


def parse_cube(target: str | os.PathLike) -> DataSource:
    """Parse a CUBE 3.x document back into the common model.

    CUBE stores exclusive severities, so inclusive values are
    reconstructed bottom-up over the cnode tree (inclusive = own
    exclusive + Σ children inclusive).
    """
    try:
        tree = ET.parse(target)
    except ET.ParseError as exc:
        raise ProfileParseError(f"malformed XML: {exc}", target) from None
    root = tree.getroot()
    if root.tag != "cube":
        raise ProfileParseError(f"expected <cube> root, found <{root.tag}>", target)
    source = DataSource()

    metric_by_id: dict[int, int] = {}  # cube metric id -> model metric index
    visits_id = None
    metrics_el = root.find("metrics")
    if metrics_el is None:
        raise ProfileParseError("missing <metrics>", target)
    for metric_el in metrics_el.findall("metric"):
        cube_id = int(metric_el.get("id", "0"))
        name_el = metric_el.find("uniq_name")
        name = name_el.text if name_el is not None and name_el.text else f"m{cube_id}"
        if name == VISITS_METRIC:
            visits_id = cube_id
            continue
        metric = source.add_metric(name)
        metric_by_id[cube_id] = metric.index

    program = root.find("program")
    if program is None:
        raise ProfileParseError("missing <program>", target)
    region_name: dict[int, str] = {}
    for region_el in program.findall("region"):
        name_el = region_el.find("name")
        region_name[int(region_el.get("id", "0"))] = (
            name_el.text if name_el is not None and name_el.text else "?"
        )

    # walk cnode tree depth-first to rebuild callpath names + child map
    cnode_path: dict[int, str] = {}
    cnode_children: dict[int, list[int]] = {}

    def walk_cnode(element: ET.Element, prefix: str | None) -> None:
        cnode_id = int(element.get("id", "0"))
        callee = int(element.get("calleeId", "0"))
        leaf = region_name.get(callee, "?")
        path = leaf if prefix is None else f"{prefix}{CALLPATH_SEPARATOR}{leaf}"
        cnode_path[cnode_id] = path
        kids = []
        for child in element.findall("cnode"):
            kids.append(int(child.get("id", "0")))
            walk_cnode(child, path)
        cnode_children[cnode_id] = kids

    for cnode_el in program.findall("cnode"):
        walk_cnode(cnode_el, None)

    system = root.find("system")
    if system is None:
        raise ProfileParseError("missing <system>", target)
    locations: list[tuple[int, int, int]] = []
    machine = system.find("machine")
    if machine is not None:
        for node_el in machine.findall("node"):
            node_id = int(node_el.get("id", "0"))
            for process_el in node_el.findall("process"):
                context = int(process_el.get("id", "0"))
                for thread_el in process_el.findall("thread"):
                    locations.append(
                        (node_id, context, int(thread_el.get("id", "0")))
                    )
    for triple in locations:
        source.add_thread(*triple)

    for cnode_id, path in cnode_path.items():
        source.add_interval_event(path)

    severity = root.find("severity")
    exclusive: dict[tuple[int, int], list[float]] = {}
    visits: dict[int, list[float]] = {}
    if severity is not None:
        for matrix_el in severity.findall("matrix"):
            cube_metric = int(matrix_el.get("metricId", "0"))
            for row_el in matrix_el.findall("row"):
                cnode_id = int(row_el.get("cnodeId", "0"))
                values = [float(v) for v in (row_el.text or "").split()]
                if cube_metric == visits_id:
                    visits[cnode_id] = values
                elif cube_metric in metric_by_id:
                    exclusive[(metric_by_id[cube_metric], cnode_id)] = values

    # inclusive = exclusive + sum of children's inclusive, per location
    inclusive_cache: dict[tuple[int, int], list[float]] = {}

    def inclusive_of(metric_index: int, cnode_id: int) -> list[float]:
        key = (metric_index, cnode_id)
        if key in inclusive_cache:
            return inclusive_cache[key]
        own = list(exclusive.get(key, [0.0] * len(locations)))
        for child in cnode_children.get(cnode_id, []):
            child_inc = inclusive_of(metric_index, child)
            own = [a + b for a, b in zip(own, child_inc)]
        inclusive_cache[key] = own
        return own

    for cnode_id, path in cnode_path.items():
        event = source.get_interval_event(path)
        for metric_index in metric_by_id.values():
            exc = exclusive.get((metric_index, cnode_id), [0.0] * len(locations))
            inc = inclusive_of(metric_index, cnode_id)
            for location, triple in enumerate(locations):
                thread = source.get_thread(*triple)
                profile = thread.get_or_create_function_profile(event)
                profile.set_exclusive(metric_index, exc[location])
                profile.set_inclusive(metric_index, inc[location])
        counts = visits.get(cnode_id)
        if counts:
            for location, triple in enumerate(locations):
                thread = source.get_thread(*triple)
                profile = thread.get_or_create_function_profile(event)
                profile.calls = counts[location]
    source.generate_statistics()
    return source

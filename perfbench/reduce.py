"""Trace reducer: a traced run's spans and facts -> per-layer metrics.

    python3 perfbench/reduce.py TRACE_DIR

``TRACE_DIR`` holds ``facts.json`` (written by ``run.py --trace 1``)
and one or more ``*.jsonl`` span files (the benchmark process, the
server or importer child, each traced ``perfdmf list``).  Keep one with
``run.py --trace 1 --keep-trace DIR``.  Prints the metrics as JSON.

A span's self time is its duration minus the durations of its direct
children (children of one request run on one thread and do not
overlap).  Server time not covered by any child span of
``AnalysisServer.handle_request`` is reported as ``rpc.unattributed_ms``
rather than folded into a layer.  Every metric is printed for every
workload; a layer the workload does not reach reads 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

from common import BenchmarkError, MIN_BEYOND, samples_beyond, tail_percentile

#: name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "rpc.server_ms": "ms",
    "rpc.overhead_ms": "ms",
    "rpc.unattributed_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.reply_bytes": "B",
    "session.load_datasource_calls": "count",
    "session.load_datasource_ms": "ms",
    "model.materialize_ms": "ms",
    "analysis.math_ms": "ms",
    "db.sql_ms": "ms",
    "db.statements": "count",
    "minisql.rows_scanned_per_row": "ratio",
    "minisql.full_scans": "count",
    "minisql.vector_selects": "count",
    "minisql.plan_cache_hit_ratio": "ratio",
    "io.parse_ms": "ms",
    "model.columnarize_ms": "ms",
    "minisql.bulk_insert_ms": "ms",
    "minisql.index_rebuild_ms": "ms",
    "minisql.index_rebuild_share": "ratio",
    "session.summary_ms": "ms",
    "db.commit_ms": "ms",
    "wal.bytes_per_row": "B/row",
    "checkpoint.bytes_per_row": "B/row",
    "cli.import_ms": "ms",
    "wal.recover_ms": "ms",
    "wal.recover_us_per_row": "us/row",
    "wal.recover_share": "ratio",
    "session.tree_ms": "ms",
    "wal.checkpoint_ms": "ms",
    "tail.p90_ms": "ms",
    "tail.n_beyond": "count",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "host.calib_ms": "ms",
}

DB_SPANS = ("db.query", "db.execute", "db.executemany")


class Trace:
    """Spans indexed by id, with their direct children."""

    def __init__(self, spans: list[dict[str, Any]]):
        self.spans = spans
        self.by_id = {s["span_id"]: s for s in spans}
        self.children: dict[str, list[dict]] = defaultdict(list)
        for s in spans:
            if s.get("parent_id"):
                self.children[s["parent_id"]].append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_ms(self, span: dict) -> float:
        kids = sum(c["duration"] for c in self.children.get(span["span_id"], ()))
        return (span["duration"] - kids) * 1000.0

    def parent_name(self, span: dict) -> str:
        parent = self.by_id.get(span.get("parent_id"))
        return parent["name"] if parent else ""

    def top_level(self, prefixes: tuple[str, ...]) -> list[dict]:
        """Spans matching ``prefixes`` whose parent does not."""
        return [s for s in self.spans if s["name"].startswith(prefixes)
                and not self.parent_name(s).startswith(prefixes)]

    def check_complete(self) -> None:
        """Every recorded parent of a same-process span must be present:
        a missing one means the ring dropped spans."""
        for s in self.spans:
            parent = s.get("parent_id")
            if parent and parent not in self.by_id and s["name"].startswith(("db.", "minisql.", "math.", "session.", "protocol.")):
                raise BenchmarkError(f"span {s['name']} lost its parent {parent}")


def _ms(spans: list[dict]) -> float:
    return sum(s["duration"] for s in spans) * 1000.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _statements(trace: Trace) -> int:
    return sum(1 for s in trace.spans if s["name"] in ("db.execute", "db.executemany"))


def served(trace: Trace, facts: dict) -> dict[str, float]:
    ops = facts["traced"]["ok"]
    handles = trace.named("rpc.handle")
    rpcs = len(handles)
    calls = trace.named("explorer.call")
    handle_of_call = {}
    for h in handles:
        server_span = trace.by_id.get(h.get("parent_id"))
        if server_span is not None:
            handle_of_call[server_span.get("parent_id")] = h
    overheads = [(c["duration"] - handle_of_call[c["span_id"]]["duration"]) * 1000.0
                 for c in calls if c["span_id"] in handle_of_call]
    if len(overheads) != len(calls):
        raise BenchmarkError(f"{len(calls) - len(overheads)} client call(s) without a server span")
    encodes = trace.named("protocol.encode")
    loads = trace.named("session.load_datasource")
    queries = trace.top_level(DB_SPANS)
    rows_returned = sum(s["attributes"].get("rows", 0) for s in queries if s["name"] == "db.query")
    counters = facts["counters"]
    hits, misses = counters["plan_cache_hits"], counters["plan_cache_misses"]
    out = {
        "rpc.server_ms": _per(_ms(handles), rpcs),
        "rpc.overhead_ms": statistics.fmean(overheads) if overheads else 0.0,
        "rpc.unattributed_ms": _per(sum(trace.self_ms(h) for h in handles), rpcs),
        "protocol.encode_ms": _per(_ms(encodes), len(encodes)),
        "protocol.reply_bytes": _per(sum(s["attributes"]["bytes"] for s in encodes), len(encodes)),
        "session.load_datasource_calls": _per(len(loads), rpcs),
        "session.load_datasource_ms": _per(_ms(loads), rpcs),
        "model.materialize_ms": _per(sum(trace.self_ms(s) for s in loads), rpcs),
        "analysis.math_ms": _per(_ms(trace.top_level(("math.",))), rpcs),
        "db.sql_ms": _per(_ms(queries), ops),
        "db.statements": _per(_statements(trace), ops),
        "minisql.rows_scanned_per_row": _per(counters["rows_scanned"], rows_returned),
        "minisql.full_scans": _per(counters["full_scans"], ops),
        "minisql.vector_selects": _per(counters["vector_selects"], ops),
        "minisql.plan_cache_hit_ratio": _per(hits, hits + misses),
        "minisql.index_rebuild_ms": facts["setup_index_rebuild_s"] * 1000.0,
        "trace.overhead": facts["untraced"]["ops_per_s"] / facts["traced"]["ops_per_s"] - 1.0,
    }
    latencies = facts["untraced"]["latencies_ms"]
    out["tail.n_beyond"] = float(samples_beyond(latencies, 0.9))
    if out["tail.n_beyond"] >= MIN_BEYOND:
        out["tail.p90_ms"] = tail_percentile(latencies, 0.9)[0]
    return out


def ingest(trace: Trace, facts: dict) -> dict[str, float]:
    imports = facts["imports"]
    traced = [r for r in imports if r["traced"]]
    plain = [r for r in imports if not r["traced"]]
    stage = {key: statistics.fmean(r["stages"][key] for r in plain) * 1000.0 for key in (
        "ingest_parse_seconds", "ingest_insert_seconds",
        "ingest_index_seconds", "ingest_summary_seconds")}
    # Traced import k against the mean of its untraced neighbours in the
    # same segment, so the archive's growth does not read as tracing cost.
    ratios = []
    for before, r, after in zip(imports, imports[1:], imports[2:]):
        if r["traced"] and before["segment"] == r["segment"] == after["segment"]:
            ratios.append(r["seconds"] / ((before["seconds"] + after["seconds"]) / 2))
    rows = sum(r["rows"] for r in imports)
    return {
        "io.parse_ms": _per(_ms(trace.named("io.parse")), len(traced)),
        "model.columnarize_ms": stage["ingest_parse_seconds"],
        "minisql.bulk_insert_ms": stage["ingest_insert_seconds"],
        "minisql.index_rebuild_ms": stage["ingest_index_seconds"],
        "minisql.index_rebuild_share": sum(r["stages"]["ingest_index_seconds"] for r in plain)
        / sum(r["seconds"] for r in plain),
        "session.summary_ms": stage["ingest_summary_seconds"],
        "db.commit_ms": _per(_ms(trace.named("db.commit")), len(traced)),
        "db.sql_ms": _per(_ms(trace.top_level(DB_SPANS)), len(traced)),
        "db.statements": _per(_statements(trace), len(traced)),
        "wal.bytes_per_row": _per(sum(r["wal_bytes"] for r in imports), rows),
        "checkpoint.bytes_per_row": facts["checkpoint_bytes_per_row"],
        "trace.overhead": statistics.fmean(ratios) - 1.0 if ratios else 0.0,
    }


def reopen(trace: Trace, facts: dict) -> dict[str, float]:
    ops = facts["ops"]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    recover_ms = _per(_ms(trace.named("minisql.recover")), n)
    op_ms = statistics.fmean(o["seconds"] for o in traced) * 1000.0
    return {
        "cli.import_ms": _per(_ms(trace.named("cli.import")), n),
        "wal.recover_ms": recover_ms,
        "wal.recover_us_per_row": recover_ms * 1000.0 / facts["rows"],
        "wal.recover_share": recover_ms / op_ms,
        "session.tree_ms": _per(_ms(trace.named("paraprof.tree")), n),
        "wal.checkpoint_ms": _per(_ms(trace.named("minisql.checkpoint")), n),
        "db.sql_ms": _per(_ms(trace.top_level(DB_SPANS)), n),
        "db.statements": _per(_statements(trace), n),
        "trace.overhead": op_ms / (statistics.fmean(o["seconds"] for o in plain) * 1000.0) - 1.0,
    }


REDUCERS = {"analyze": served, "browse": served, "ingest": ingest, "reopen": reopen}


def reduce(trace_dir: Path) -> dict[str, dict[str, Any]]:
    facts = json.loads((trace_dir / "facts.json").read_text())
    if facts["dropped"]:
        raise BenchmarkError("the tracer ring overflowed: spans were dropped")
    spans = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh if line.strip()]
    trace = Trace(spans)
    trace.check_complete()
    values = {name: 0.0 for name in PER_LAYER}
    values.update(REDUCERS[facts["workload"]](trace, facts))
    values["trace.spans"] = float(len(spans))
    values["host.calib_ms"] = statistics.fmean(facts["calib_ms"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def write_trace(trace_dir: Path, workload: str, run, calib_ms: tuple[float, float]) -> None:
    """Write the benchmark process's spans and the run's facts."""
    from spans import write_spans

    trace_dir.mkdir(exist_ok=True)
    facts = dict(run.facts)
    write_spans(facts.pop("parent_spans", []), trace_dir / "client.jsonl")
    for key, phase in (("untraced", facts.get("untraced")), ("traced", run.phase)):
        if phase is not None:
            facts[key] = {
                "ok": phase.ok, "ops_per_s": phase.ok / phase.elapsed,
                "latencies_ms": [x * 1000.0 for x in phase.latencies],
            }
    facts.update(workload=workload, calib_ms=list(calib_ms))
    (trace_dir / "facts.json").write_text(json.dumps(facts))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(reduce(Path(sys.argv[1])), indent=1))

"""Server child for the analyze and browse workloads.

Builds the served archive through the program (``save_trial`` into a
file-backed MiniSQL archive), starts the default async PerfExplorer
server on it and then obeys JSON-line commands on stdin:

``settle``     collect garbage (end of setup)
``trace_on``   enable the tracer, snapshot engine counters, start draining
``trace_off``  disable the tracer, keep the counter deltas
``finish``     stop the server, write spans to ``spans`` if given, exit

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import gc
import traceback
from pathlib import Path

from common import commands, emit, refuse_program_env
from data import SERVED, catalog, profile, save_profiles

COUNTERS = ("rows_scanned", "full_scans", "vector_selects",
            "plan_cache_hits", "plan_cache_misses")


def instrument(server) -> None:
    """Spans around public calls into layers that have none."""
    import repro.explorer.eventloop as eventloop
    import repro.explorer.server as server_module
    from repro.db.api import DBConnection
    from spans import wrap

    wrap(server, "handle_request", "rpc.handle")
    wrap(eventloop, "encode_message", "protocol.encode", lambda b: {"bytes": len(b)})
    for fn in ("imbalance_chart", "correlation_matrix", "event_values"):
        wrap(server_module, fn, f"math.{fn}")
    wrap(server.backend, "describe", "math.describe")
    wrap(server.backend, "correlate", "math.correlate")
    wrap(DBConnection, "query", "db.query", lambda rows: {"rows": len(rows)})
    wrap(DBConnection, "query_one", "db.query", lambda row: {"rows": int(row is not None)})


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ranks", type=int, required=True)
    parser.add_argument("--big-ranks", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    refuse_program_env()

    from repro.explorer.server import AnalysisServer, SocketServer
    from repro.obs.trace import tracer

    server = AnalysisServer(f"minisql://{args.db}")
    connection = server.session.connection
    ids, rebuild_s = save_profiles(server.session, [
        (s.application, s.experiment, s.name, profile(args.seed, SERVED, s.index, s.ranks))
        for s in catalog(args.ranks, args.big_ranks)
    ])
    if args.trace:
        instrument(server)
    front = SocketServer(server, port=0)
    host, port = front.start()
    emit({"host": host, "port": port, "trials": ids, "index_rebuild_s": rebuild_s})

    sink = None
    before: dict = {}
    deltas = {k: 0 for k in COUNTERS}
    for cmd in commands():
        name = cmd["cmd"]
        if name == "settle":
            gc.collect()
            emit({"ok": True})
        elif name == "trace_on":
            from spans import SpanSink

            before = connection.stats()
            tracer.enable()
            sink = sink or SpanSink()
            emit({"ok": True})
        elif name == "trace_off":
            tracer.disable()
            after = connection.stats()
            for key in COUNTERS:
                deltas[key] += after.get(key, 0) - before.get(key, 0)
            emit({"ok": True})
        elif name == "finish":
            front.stop()
            dropped = False
            if sink is not None:
                from spans import write_spans

                spans = sink.stop()
                dropped = sink.dropped
                if cmd.get("spans"):
                    write_spans(spans, Path(cmd["spans"]))
            emit({"counters": deltas, "dropped": dropped})
            return


if __name__ == "__main__":
    try:
        main()
    except Exception:
        emit({"error": traceback.format_exc()})
        raise SystemExit(1)

"""Importer child for the ingest workload.

Opens a file-backed MiniSQL archive through ``ArchiveManager`` (the
``perfdmf load`` path), stores the base trial in one bulk load, parses
one input untimed to warm the importer, then obeys JSON-line commands:

``run``     import the input directories in order until ``seconds`` have
            passed (and ``min_imports`` are done) or the sequence ends;
            before import k the archive must hold exactly
            ``expected_rows[k]`` location rows
``verify``  per-trial location-row count and exclusive-time sum
``finish``  close the archive (checkpoint), report its bytes, exit

In a traced run every odd import runs with the tracer on, so traced
and untraced imports interleave along the same archive growth.
Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import gc
import time
import traceback
from pathlib import Path

from common import commands, emit, refuse_program_env
from data import BASE, profile, save_profiles

COUNT_SQL = "SELECT count(*) FROM interval_location_profile"
VERIFY_SQL = (
    "SELECT t.name, count(*), sum(p.exclusive) FROM interval_location_profile p "
    "JOIN interval_event e ON p.interval_event = e.id "
    "JOIN trial t ON e.trial = t.id GROUP BY t.name ORDER BY t.name"
)


def instrument() -> None:
    import repro.paraprof.manager as manager
    from repro.db.api import DBConnection
    from spans import wrap

    wrap(manager, "load_profile", "io.parse")
    wrap(DBConnection, "commit", "db.commit")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--base-ranks", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    refuse_program_env()

    from repro.paraprof.manager import ArchiveManager, load_profile
    from repro.obs.trace import tracer

    manager = ArchiveManager(f"minisql://{args.db}")
    connection = manager.session.connection
    save_profiles(manager.session, [
        ("base", "bluegene", "base-512", profile(args.seed, BASE, 0, args.base_ranks))
    ])
    inputs = sorted(Path(args.inputs).iterdir())
    load_profile(inputs[0])  # warm the parser; stores nothing
    if args.trace:
        instrument()
    gc.collect()
    emit({"ready": True})

    sink = None
    for cmd in commands():
        name = cmd["cmd"]
        if name == "run":
            if args.trace:
                from spans import SpanSink

                sink = SpanSink()
            imports = []
            deadline = time.perf_counter() + cmd["seconds"]
            for k, directory in enumerate(inputs):
                if k >= cmd["min_imports"] and time.perf_counter() >= deadline:
                    break
                rows = connection.scalar(COUNT_SQL)
                if rows != cmd["expected_rows"][k]:
                    raise RuntimeError(
                        f"archive holds {rows} rows before import {k}, "
                        f"the seed's trajectory says {cmd['expected_rows'][k]}"
                    )
                traced = args.trace and k % 2 == 1
                wal_before = connection.stats().get("wal_bytes", 0)
                if traced:
                    tracer.enable()
                t0 = time.perf_counter()
                manager.import_profile(directory, "imports", "sequence", directory.name)
                seconds = time.perf_counter() - t0
                tracer.disable()
                stats = connection.stats()
                imports.append({
                    "seconds": seconds, "traced": traced,
                    "rows": stats["ingest_rows"],
                    "wal_bytes": stats.get("wal_bytes", 0) - wal_before,
                    "stages": {key: stats[key] for key in (
                        "ingest_parse_seconds", "ingest_insert_seconds",
                        "ingest_index_seconds", "ingest_summary_seconds")},
                })
            emit({"imports": imports})
        elif name == "verify":
            emit({"trials": connection.query(VERIFY_SQL)})
        elif name == "finish":
            dropped = False
            if sink is not None:
                from spans import write_spans

                spans = sink.stop()
                dropped = sink.dropped
                if cmd.get("spans"):
                    write_spans(spans, Path(cmd["spans"]))
            manager.session.close()
            emit({"dropped": dropped})
            return


if __name__ == "__main__":
    try:
        main()
    except Exception:
        emit({"error": traceback.format_exc()})
        raise SystemExit(1)

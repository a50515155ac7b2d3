"""Reopen workload helper, two modes.

``build``  store the reopen archive through the program and close it
           (a clean close leaves a checkpoint and an empty WAL); prints
           the trial names and the location-row count as JSON.
``list``   one traced cold ``perfdmf list``: times ``import repro.cli``,
           then runs the CLI's own ``main`` with the tracer on and
           writes the spans to ``--spans``.  The listing goes to stdout
           exactly as ``python -m repro.cli list`` prints it.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def build(args) -> None:
    from common import refuse_program_env
    from data import REOPEN, profile, save_profiles
    from repro.core.session.dbsession import PerfDMFSession

    refuse_program_env()
    session = PerfDMFSession(f"minisql://{args.db}")
    names = [f"run-{k:02d}" for k in range(args.trials)]
    profiles = [profile(args.seed, REOPEN, k, args.ranks) for k in range(args.trials)]
    save_profiles(session, [("miranda", "bgl", n, p) for n, p in zip(names, profiles)])
    session.close()
    print(json.dumps({"trials": names, "rows": sum(p.rows for p in profiles)}))


def traced_list(args) -> int:
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    from common import refuse_program_env
    from repro.obs.trace import tracer
    from repro.paraprof.manager import ArchiveManager
    from spans import wrap, write_spans

    refuse_program_env()
    wrap(ArchiveManager, "tree", "paraprof.tree")
    tracer.enable()
    with tracer.span("cli.list"):
        code = repro.cli.main(["list", "--db", args.db])
    tracer.disable()
    spans = tracer.drain()
    spans.append({"name": "cli.import", "span_id": f"cli.import-{os.getpid()}", "parent_id": None,
                  "trace_id": None, "start": 0.0, "duration": import_s, "attributes": {}})
    write_spans(spans, args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("build", "list"))
    parser.add_argument("--db", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--ranks", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "build":
        build(args)
        return 0
    return traced_list(args)


if __name__ == "__main__":
    sys.exit(main())

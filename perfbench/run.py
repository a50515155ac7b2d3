"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs half the time untraced and half traced and prints
the per-layer metrics the trace reducer (``reduce.py``) derives.  The
last line of standard output is the result; progress goes to stderr.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import (
    SRC, WORK_ROOT, BenchmarkError, calibrate, checkout_ok, make_workdir, median,
    pin_to_one_cpu, refuse_program_env,
)

WORKLOADS = ("analyze", "browse", "ingest", "reopen")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "rows_per_s": "rows/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
    "archive_bytes_per_row": "B/row",
    "ok_ratio": "ratio",
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def end_to_end(run) -> dict[str, dict]:
    phase = run.phase
    if phase.ok == 0:
        raise BenchmarkError("no op succeeded")
    values = {
        "setup_s": run.setup_s,
        "ops_per_s": phase.ok / phase.elapsed,
        "rows_per_s": run.rows_per_s,
        "p50_ms": median(phase.latencies) * 1000.0,
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "archive_bytes_per_row": run.archive_bytes_per_row,
        "ok_ratio": phase.ok / phase.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for the benchmark's tests")
    parser.add_argument("--keep-trace", default=None,
                        help="directory to keep the traced run's spans and facts in")
    args = parser.parse_args(argv)

    if not checkout_ok():
        print("perfbench: no src/repro next to perfbench/; run from a checkout", file=sys.stderr)
        return 2
    refuse_program_env()
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))

    import workloads

    size = workloads.SIZES[args.size]
    workdir = make_workdir(args.workload)
    calib_start = calibrate()
    log(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"calib_start_ms={calib_start:.3f}")
    try:
        workload = getattr(workloads, args.workload.capitalize())(args.seed, size, workdir)
        t0 = time.perf_counter()
        run = workload.run(args.seconds, bool(args.trace))
        log(f"run took {time.perf_counter() - t0:.1f}s; "
            f"ops {run.phase.ok}/{run.phase.attempted}; errors {workload.errors}")
        calib_end = calibrate()
        log(f"calib_end_ms={calib_end:.3f}")
        if args.trace:
            import reduce

            reduce.write_trace(workload.trace_dir, args.workload, run,
                               calib_ms=(calib_start, calib_end))
            metrics = reduce.reduce(workload.trace_dir)
            if args.keep_trace:
                shutil.copytree(workload.trace_dir, args.keep_trace, dirs_exist_ok=True)
        else:
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    attempted, failed = run.phase.attempted, run.phase.failed
    if "untraced" in run.facts:
        attempted += run.facts["untraced"].attempted
        failed += run.facts["untraced"].failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)

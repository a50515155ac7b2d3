"""Shared plumbing for the benchmark: paths, child processes, timing guards.

Everything here is independent of the program under test except for
``child_env``, which points child interpreters at the checkout's
``src/`` tree.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; listed in the root .gitignore.
WORK_ROOT = ROOT / ".perfbench_work"

#: Tail percentiles need at least this many samples beyond them.
MIN_BEYOND = 10

#: The only program option the benchmark may pass.  Everything else
#: (PRAGMAs, serve flags, shards, replicas) stays at the default so a
#: later change may delete an option without editing the benchmark.
ALLOWED_PROGRAM_OPTIONS = ("--db",)


class BenchmarkError(RuntimeError):
    """A run that must not report a result."""


def pin_to_one_cpu() -> None:
    """Run this process, and so every child it starts, on one CPU.

    The recorded host of the repository's benchmarks has one core.  On
    a virtual machine, a client and server on different CPUs wait on
    each other's wake-ups, whose latency drifts with the load of the
    physical host; on one CPU they hand over by a local context switch.
    The quartile spread of browse throughput over five seeds fell from
    0.20 to 0.03 (see README.md).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def checkout_ok() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for program children: the checkout's ``src`` and this
    directory first on the path, and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program_argv(argv: list[str]) -> None:
    """Refuse any program option beyond the database URL."""
    for arg in argv:
        if arg.startswith("-") and arg not in ALLOWED_PROGRAM_OPTIONS:
            raise BenchmarkError(f"program option {arg!r} is not allowed")


def refuse_program_env() -> None:
    """Refuse to run with ``REPRO_*`` variables set: they switch program
    behaviour (fault injection) that the benchmark must not measure."""
    bad = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if bad:
        raise BenchmarkError(f"refusing to run with program switches set: {bad}")


def make_workdir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("median of no samples")
    return float(statistics.median(values))


def _quantile(ordered: list[float], q: float) -> float:
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(values: list[float], q: float) -> int:
    """How many samples lie above the ``q`` quantile."""
    if not values:
        return 0
    value = _quantile(sorted(values), q)
    return sum(1 for v in values if v > value)


def tail_percentile(values: list[float], q: float) -> tuple[float, int]:
    """The ``q`` quantile (0.5 < q < 1) and the number of samples beyond it.

    Refuses (raises) when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile: such a figure rests on a handful of samples
    and moves from run to run.
    """
    if not 0.5 < q < 1.0:
        raise ValueError("tail percentiles lie strictly between 0.5 and 1")
    beyond = samples_beyond(values, q)
    if beyond < MIN_BEYOND:
        raise BenchmarkError(
            f"p{q * 100:g} has {beyond} sample(s) beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return _quantile(sorted(values), q), beyond


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python kernel (median of five).

    Timed at the start and end of every run as a record of how fast
    this host ran the interpreter at that moment.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


class Child:
    """A program child speaking JSON lines: commands on stdin, replies on
    stdout.  ``close`` waits for the exit and keeps its peak RSS."""

    def __init__(self, argv: list[str], cwd: Optional[Path] = None):
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=str(cwd or ROOT), text=True, bufsize=1,
        )
        self.peak_rss_kb: Optional[float] = None

    def read(self) -> dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchmarkError(f"child {self.proc.args[1]} exited early")
        reply = json.loads(line)
        if "error" in reply:
            self.kill()
            raise BenchmarkError(f"child error: {reply['error']}")
        return reply

    def command(self, cmd: str, **args: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self, timeout: float = 120.0, **args: Any) -> dict[str, Any]:
        """Send ``finish``, collect the final reply and reap the child."""
        reply = self.command("finish", **args)
        self.proc.stdin.close()
        self.peak_rss_kb = reap(self.proc, timeout)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"child exited with {self.proc.returncode}")
        return reply

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                reap(self.proc, 30.0)
            except BenchmarkError:
                pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` and return its peak RSS in kB (Linux ru_maxrss).

    A watchdog kills a child that outlives ``timeout``; the run then
    fails rather than hang.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchmarkError(f"child {proc.args} killed by signal {-proc.returncode}")
    return float(usage.ru_maxrss)


def run_program(argv: list[str], timeout: float = 120.0) -> tuple[str, float, float]:
    """Run one program process to completion.

    Returns (stdout, wall seconds from spawn to exit, peak RSS kB).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + argv, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, env=child_env(), cwd=str(ROOT),
    )
    out = proc.stdout.read()
    proc.stdout.close()
    rss_kb = reap(proc, timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv} exited with {proc.returncode}")
    return out.decode("utf-8"), wall, rss_kb


def emit(reply: dict[str, Any]) -> None:
    """Child side of the JSON-lines protocol."""
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()


def commands():
    """Child side: yield parsed commands from stdin until EOF."""
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield json.loads(line)

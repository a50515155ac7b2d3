"""E16 — replicated read serving: 1 primary + 2 replicas vs single server.

PR 9 adds MVCC snapshot reads, WAL-shipped read replicas, and client
failover.  This benchmark measures the serving-capacity claim: a fleet
of reader threads drives ``imbalance_chart`` (full trial load + numpy
fold per request — server-CPU-bound, small response) against

* a single primary server absorbing both the readers and a concurrent
  ``cluster_trial`` writer, and
* the same primary plus two WAL-shipped read replicas, readers spread
  round-robin across all three.

Every server runs in its own child process, so the replicated
configuration gets real multi-core parallelism — exactly what a
deployment buys by pointing clients at replicas.  The writer keeps
committing during both phases, so replicas are actively tailing WAL
while they serve; at the end each replica must drain to lag 0 and its
reported ``replication_lag_seconds`` must sit under the bound.

Every server runs the event-loop ``SocketServer``; its numbers land
under the JSON's ``"async"`` key, continuing the series
``bench_history.mdb`` has tracked for it.

Results land in ``BENCH_e16_replica.json``; CI's smoke job
(``REPRO_E16_RANKS=16``, short duration) only checks the no-pathology
floor — the 1.8x acceptance figure needs >=4 real cores at strict
scale.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.explorer.client import PerfExplorerClient

from conftest import scale

RANKS = int(os.environ.get("REPRO_E16_RANKS", "0")) or scale(64, 256)
DURATION = float(os.environ.get("REPRO_E16_SECONDS", "0")) or scale(4.0, 10.0)
READERS = int(os.environ.get("REPRO_E16_READERS", "0")) or 6
N_REPLICAS = 2

#: Below these the per-request time is microseconds-to-low-ms and the
#: ratio is dominated by client-side dispatch, not server capacity.
STRICT_RANKS = 64
STRICT_SECONDS = 4.0
#: 1 primary + 2 replicas can only beat one server given real cores.
STRICT_CORES = 4

#: Acceptance bound on the lag each replica reports once drained.
LAG_BOUND_SECONDS = float(os.environ.get("REPRO_E16_LAG_BOUND", "5.0"))

CORES = os.cpu_count() or 1

E16_JSON = Path(__file__).resolve().parent.parent / "BENCH_e16_replica.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

# Primary: serve a Miranda trial from a durable archive (WAL on, so it
# can ship segments), snapshot isolation on so the concurrent writer
# never stalls readers.  Prints the serving address and the trial id.
_PRIMARY_CHILD = """
import sys, time
from repro.explorer.server import AnalysisServer, SocketServer
from repro.tau.apps import Miranda

server = AnalysisServer(f"minisql://{sys.argv[1]}")
sock = SocketServer(server, port=0)
host, port = sock.start()
session = server.session
app = session.create_application("e16-app")
exp = session.create_experiment(app, "e16-exp")
trial = session.save_trial(Miranda().generate(int(sys.argv[2])), exp, "e16")
session.connection.commit()
session.connection.execute("PRAGMA snapshot_isolation(on)")
print(f"ADDR {host} {port} {trial.id}", flush=True)
while True:
    time.sleep(60)
"""

# Replica: tail the primary's WAL over the wire, then serve read-only.
# Prints its address only after the initial catch-up completes.
_REPLICA_CHILD = """
import sys, time
from repro.db.minisql.replica import Replica, RemoteWalSource
from repro.explorer.server import AnalysisServer, SocketServer

rep = Replica(
    RemoteWalSource(sys.argv[1], int(sys.argv[2]), replica_id=sys.argv[3]),
    name=sys.argv[3], poll_interval=0.05,
)
rep.start()
rep.catch_up(timeout=120)
server = AnalysisServer(rep.shared_url(), read_only=True, replica=rep)
sock = SocketServer(server, port=0)
host, port = sock.start()
print(f"ADDR {host} {port}", flush=True)
while True:
    time.sleep(60)
"""


def _spawn(code: str, *argv: str) -> tuple[subprocess.Popen, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("ADDR "):
        err = proc.stderr.read() if proc.poll() is not None else ""
        proc.kill()
        raise RuntimeError(f"child failed to start: {line!r}\n{err}")
    return proc, line.split()[1:]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _drive(endpoints, trial_id: int, duration: float) -> dict:
    """Readers pinned round-robin over ``endpoints``; one writer keeps
    committing ``cluster_trial`` analyses against the primary
    (``endpoints[0]``) the whole time.  Returns QPS and latency."""
    stop = threading.Event()
    latencies: list[list[float]] = [[] for _ in range(READERS)]
    errors: list[str] = []
    writes = [0]

    def reader(slot: int) -> None:
        host, port = endpoints[slot % len(endpoints)]
        try:
            with PerfExplorerClient(host, port, timeout=60) as client:
                while not stop.is_set():
                    t0 = time.perf_counter()
                    client.imbalance_chart(trial_id, top=5)
                    latencies[slot].append(time.perf_counter() - t0)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(f"reader[{slot}]: {type(exc).__name__}: {exc}")

    def writer() -> None:
        host, port = endpoints[0]
        try:
            with PerfExplorerClient(host, port, timeout=60) as client:
                while not stop.is_set():
                    client.cluster_trial(trial_id, k=2, save=True)
                    writes[0] += 1
                    stop.wait(0.1)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(f"writer: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(READERS)
    ]
    threads.append(threading.Thread(target=writer))
    started = time.perf_counter()
    for t in threads:
        t.start()
    time.sleep(duration)
    stop.set()
    for t in threads:
        t.join(timeout=120)
    elapsed = time.perf_counter() - started
    flat = [s for per_reader in latencies for s in per_reader]
    assert errors == [], f"workload errors: {errors}"
    assert flat, "no reads completed"
    return {
        "reads": len(flat),
        "read_qps": len(flat) / elapsed,
        "p50_ms": _percentile(flat, 0.50) * 1e3,
        "p99_ms": _percentile(flat, 0.99) * 1e3,
        "writes": writes[0],
        "write_qps": writes[0] / elapsed,
    }


def _drained_lag(host: str, port: int, timeout: float = 30.0) -> dict:
    """Poll a replica until its record lag reaches 0, then report."""
    deadline = time.monotonic() + timeout
    with PerfExplorerClient(host, port, timeout=60) as client:
        while True:
            status = client.replication_status()
            if status["replication_lag_records"] == 0:
                return status
            if time.monotonic() > deadline:
                return status
            time.sleep(0.2)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """The single-vs-replicated matrix."""
    base = tmp_path_factory.mktemp("e16")
    children: list[subprocess.Popen] = []
    try:
        primary, (phost, pport, trial_id) = _spawn(
            _PRIMARY_CHILD, str(base / "primary.mdb"), str(RANKS)
        )
        children.append(primary)
        primary_ep = (phost, int(pport))
        trial = int(trial_id)

        single = _drive([primary_ep], trial, DURATION)

        replica_eps = []
        for i in range(N_REPLICAS):
            proc, (rhost, rport) = _spawn(
                _REPLICA_CHILD, phost, pport, f"e16-r{i}"
            )
            children.append(proc)
            replica_eps.append((rhost, int(rport)))

        fleet = [primary_ep, *replica_eps]
        replicated = _drive(fleet, trial, DURATION)

        lags = [_drained_lag(h, p) for h, p in replica_eps]
    finally:
        for proc in children:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
    yield {
        "single": single,
        "replicated": replicated,
        "qps_ratio": replicated["read_qps"] / single["read_qps"],
        "lags": lags,
    }


def _strict() -> bool:
    return (
        RANKS >= STRICT_RANKS
        and DURATION >= STRICT_SECONDS
        and CORES >= STRICT_CORES
    )


def test_replicated_read_qps(measured, report):
    """Acceptance: replicated read QPS >= 1.8x single-server on >=4
    cores — three serving processes vs one."""
    single, replicated = measured["single"], measured["replicated"]
    report(
        f"E16 replicated reads (+{N_REPLICAS} replicas) -> "
        f"{measured['qps_ratio']:6.2f}x ({single['read_qps']:.0f} -> "
        f"{replicated['read_qps']:.0f} read QPS, p99 "
        f"{single['p99_ms']:.1f} -> {replicated['p99_ms']:.1f} ms, "
        f"{READERS} readers, cores={CORES})"
    )
    if _strict():
        assert measured["qps_ratio"] >= 1.8, (
            f"replicated fleet must serve >=1.8x the single-server read "
            f"QPS on {CORES} cores, got {measured['qps_ratio']:.2f}x"
        )
    else:
        # Smoke floor: spreading readers over three processes must never
        # cost throughput outright.
        assert measured["qps_ratio"] >= 0.7, (
            f"replicated serving fell below the no-pathology floor: "
            f"{measured['qps_ratio']:.2f}x"
        )


def test_writes_kept_flowing(measured):
    """Mixed workload really was mixed: the writer committed in both
    phases (the replicas were tailing live WAL, not an idle archive)."""
    assert measured["single"]["writes"] > 0
    assert measured["replicated"]["writes"] > 0


def test_replica_lag_under_bound(measured, report):
    """After the workload the replicas drain and report a lag under the
    configured bound — serving never left them unboundedly behind."""
    worst = max(lag["replication_lag_seconds"] for lag in measured["lags"])
    records = max(lag["replication_lag_records"] for lag in measured["lags"])
    report(
        f"E16 replica lag after mixed load -> "
        f"{worst:6.3f} s / {records} records "
        f"(bound {LAG_BOUND_SECONDS:.1f} s)"
    )
    assert records == 0, f"replicas never drained: {records} records behind"
    assert worst <= LAG_BOUND_SECONDS
    for lag in measured["lags"]:
        assert lag["role"] == "replica"
        assert lag["state"] == "streaming"


def _phase_payload(result: dict) -> dict:
    return {
        "single": {
            "read_qps": round(result["single"]["read_qps"], 2),
            "p50_ms": round(result["single"]["p50_ms"], 3),
            "p99_ms": round(result["single"]["p99_ms"], 3),
            "write_qps": round(result["single"]["write_qps"], 2),
        },
        "replicated": {
            "read_qps": round(result["replicated"]["read_qps"], 2),
            "p50_ms": round(result["replicated"]["p50_ms"], 3),
            "p99_ms": round(result["replicated"]["p99_ms"], 3),
            "write_qps": round(result["replicated"]["write_qps"], 2),
        },
        "qps_ratio": round(result["qps_ratio"], 3),
        "lag_seconds_worst": round(
            max(l["replication_lag_seconds"] for l in result["lags"]), 6
        ),
    }


def test_write_bench_json(measured):
    payload = {
        "ranks": RANKS,
        "duration_seconds": DURATION,
        "readers": READERS,
        "replicas": N_REPLICAS,
        "cores": CORES,
        "async": _phase_payload(measured),
    }
    from repro.obs.bench import write_bench_json

    write_bench_json(E16_JSON, "e16_replica", payload)

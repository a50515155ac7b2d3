"""The four workloads.

A run is ``segments`` segments.  Each segment sets up from scratch —
inputs, archive built through the program, server or importer started,
untimed warm-up — and then times its share of ``--seconds``.  Spreading
the timed ops over several processes and over a longer stretch of wall
time averages out both per-process effects (memory layout) and the
host's speed drift, which on a shared virtual machine moves for tens of
seconds at a time.  Every loop is closed: a client or importer waits
for each reply before sending the next request, and the op sequence is
fixed by the seed.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import data
import oracle
from common import BENCH_DIR, Child, check_program_argv, median, run_program

#: Sizes per ``--size``.  ``full`` is the benchmark; ``tiny`` exists for
#: the benchmark's own tests and keeps every code path.
SIZES: dict[str, dict[str, int]] = {
    "full": dict(ranks=32, big_ranks=256, base_ranks=512, imports=16, reopen_ranks=40,
                 segments=3, warmup_analyze=1, warmup_browse=20),
    "tiny": dict(ranks=4, big_ranks=16, base_ranks=8, imports=4, reopen_ranks=4,
                 segments=2, warmup_analyze=1, warmup_browse=1),
}

ANALYZE_REQUESTS = 4
BROWSE_CONNECTIONS = 2


@dataclass
class Phase:
    """Timed ops of a closed loop."""

    latencies: list[float] = field(default_factory=list)  # seconds, verified ops
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    rows: int = 0  # location or catalog rows the verified ops moved

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def add(self, other: "Phase", elapsed: float) -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.rows += other.rows
        self.elapsed += elapsed


@dataclass
class Segment:
    """What one segment measured."""

    phase: Phase
    peak_rss_kb: float
    archive_bytes_per_row: float
    facts: dict[str, Any] = field(default_factory=dict)
    #: traced served runs: the untraced first half of the segment
    untraced: Optional[Phase] = None


@dataclass
class Run:
    phase: Phase
    setup_s: float
    rows_per_s: float
    peak_rss_kb: float
    archive_bytes_per_row: float
    facts: dict[str, Any] = field(default_factory=dict)


def closed_loop(op: Callable[[int], int], seconds: float, errors: list[str],
                min_ops: int = 1) -> Phase:
    """Run ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    at least ``min_ops`` ops were attempted.

    ``op`` returns the rows it moved and raises on any error or wrong
    answer; that op counts as failed.
    """
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        phase.attempted += 1
        try:
            rows = op(i)
        except Exception as exc:  # any failure is a failed op, never a crash
            phase.failed += 1
            record_error(errors, exc)
        else:
            phase.latencies.append(time.perf_counter() - t0)
            phase.rows += rows
        i += 1
    phase.elapsed = time.perf_counter() - start
    return phase


def record_error(errors: list[str], exc: BaseException) -> None:
    if len(errors) < 5:
        errors.append(f"{type(exc).__name__}: {exc}")


def archive_bytes(path: Path) -> int:
    """Bytes of a MiniSQL archive on disk: the checkpoint plus WAL segments."""
    return sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


def merge_facts(facts: list[dict[str, Any]]) -> dict[str, Any]:
    """Segment facts -> run facts: lists concatenate, flags or, counters
    add up, numbers take the median."""
    out: dict[str, Any] = {}
    for key in facts[0]:
        values = [f[key] for f in facts]
        if isinstance(values[0], list):
            out[key] = [x for v in values for x in v]
        elif isinstance(values[0], bool):
            out[key] = any(values)
        elif isinstance(values[0], dict):
            out[key] = {k: sum(v[k] for v in values) for k in values[0]}
        else:
            out[key] = median(values)
    return out


class Workload:
    """The segment loop shared by the four workloads."""

    name = ""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.trace_dir = workdir / "trace"
        self.trace_dir.mkdir(exist_ok=True)
        self.errors: list[str] = []

    def setup(self, segdir: Path, trace: bool) -> Any:
        raise NotImplementedError

    def measure(self, state: Any, segment: int, seconds: float, trace: bool) -> Segment:
        raise NotImplementedError

    def rows_per_s(self, phase: Phase) -> float:
        return phase.rows / phase.elapsed

    def run(self, seconds: float, trace: bool) -> Run:
        segments = self.size["segments"]
        setups, results = [], []
        for seg in range(segments):
            segdir = self.workdir / f"{self.name}-{seg}"
            segdir.mkdir()
            t0 = time.perf_counter()
            state = self.setup(segdir, trace)
            setups.append(time.perf_counter() - t0)
            results.append(self.measure(state, seg, seconds / segments, trace))
        phase = Phase()
        for r in results:
            phase.add(r.phase, r.phase.elapsed)
        facts = merge_facts([r.facts for r in results])
        if results[0].untraced is not None:
            untraced = Phase()
            for r in results:
                untraced.add(r.untraced, r.untraced.elapsed)
            facts["untraced"] = untraced
        return Run(
            phase=phase,
            setup_s=median(setups),
            rows_per_s=self.rows_per_s(phase) if phase.ok else 0.0,
            peak_rss_kb=median([r.peak_rss_kb for r in results]),
            archive_bytes_per_row=median([r.archive_bytes_per_row for r in results]),
            facts=facts,
        )


# -- served workloads: analyze and browse --------------------------------------

class Served:
    """A server child holding the served archive, plus its clients."""

    def __init__(self, segdir: Path, seed: int, size: dict, connections: int,
                 trace: bool):
        from repro.explorer.client import PerfExplorerClient

        self.db = segdir / "archive.mdb"
        argv = ["--db", str(self.db)]
        check_program_argv(argv)
        self.child = Child([str(BENCH_DIR / "serve_child.py"), *argv,
                            "--seed", str(seed), "--ranks", str(size["ranks"]),
                            "--big-ranks", str(size["big_ranks"])] + (["--trace"] if trace else []))
        ready = self.child.read()
        self.trial_ids: dict[str, int] = ready["trials"]
        self.index_rebuild_s: float = ready["index_rebuild_s"]
        self.clients = [PerfExplorerClient(ready["host"], ready["port"], timeout=120)
                        for _ in range(connections)]

    def close(self, spans: Optional[str] = None) -> dict[str, Any]:
        for client in self.clients:
            client.close()
        return self.child.close(spans=spans)

    def kill(self) -> None:
        for client in self.clients:
            client.close()
        self.child.kill()


def _analyze_op(client, trial_id: int, answers: oracle.TrialAnswers) -> None:
    """A drill-down: the imbalance chart, then the worst events in detail."""
    chart = client.call("imbalance_chart", trial=trial_id, top=10)
    worst = [row["event"] for row in chart["events"]]
    described = client.call("describe_event", trial=trial_id, event=worst[0])
    correlated = client.call("correlate_events", trial=trial_id,
                             event_x=worst[0], event_y=worst[1])
    matrix = client.call("correlation_matrix", trial=trial_id, events=worst[:4])
    answers.check_imbalance(chart)
    answers.check_describe(described)
    answers.check_correlate(correlated)
    answers.check_matrix(matrix)


def _browse_op(client, catalog: oracle.Catalog, spec: data.TrialSpec) -> int:
    """A navigation path down to one trial; returns the rows listed."""
    apps = client.call("list_applications")
    catalog.check_applications(apps)
    app_id = {a["name"]: a["id"] for a in apps}[spec.application]
    exps = client.call("list_experiments", application=app_id)
    catalog.check_experiments(spec.application, exps)
    exp_id = {e["name"]: e["id"] for e in exps}[spec.experiment]
    trials = client.call("list_trials", experiment=exp_id)
    catalog.check_trials(spec.application, spec.experiment, trials)
    trial_id = {t["name"]: t["id"] for t in trials}[spec.name]
    metrics = client.call("list_metrics", trial=trial_id)
    catalog.check_metrics(metrics)
    events = client.call("list_events", trial=trial_id)
    catalog.check_events(events)
    return len(apps) + len(exps) + len(trials) + len(metrics) + len(events)


class _ServedWorkload(Workload):
    """What analyze and browse share: the server child, the warm-up, and
    a segment of closed loops, one per connection (traced runs: an
    untraced then a traced half)."""

    connections = 1

    def __init__(self, seed: int, size: dict, workdir: Path):
        super().__init__(seed, size, workdir)
        self.specs = data.catalog(size["ranks"], size["big_ranks"])

    def prepare_oracle(self) -> None:
        raise NotImplementedError

    def op_factory(self, served: Served, connection: int, segment: int) -> Callable[[int], int]:
        raise NotImplementedError

    def loops(self, served: Served, segment: int, seconds: float) -> Phase:
        """Every connection's closed loop in its own thread."""
        results = [Phase() for _ in served.clients]

        def drive(k: int) -> None:
            results[k] = closed_loop(self.op_factory(served, k, segment), seconds, self.errors)

        threads = [threading.Thread(target=drive, args=(k,)) for k in range(len(served.clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = Phase()
        for r in results:
            total.add(r, 0.0)
        total.elapsed = max(r.elapsed for r in results)
        return total

    def setup(self, segdir: Path, trace: bool) -> Served:
        self.prepare_oracle()
        served = Served(segdir, self.seed, self.size, self.connections, trace)
        try:
            for k in range(len(served.clients)):
                # warm-up ops come from a stream of their own
                op = self.op_factory(served, k, -1)
                for i in range(self.size["warmup_" + self.name]):
                    op(i)
            served.child.command("settle")
            gc.collect()
        except BaseException:
            served.kill()
            raise
        return served

    def measure(self, served: Served, segment: int, seconds: float, trace: bool) -> Segment:
        untraced = None
        facts: dict[str, Any] = {"setup_index_rebuild_s": served.index_rebuild_s}
        try:
            if not trace:
                phase = self.loops(served, segment, seconds)
            else:
                from repro.obs.trace import tracer
                from spans import SpanSink

                untraced = self.loops(served, segment, seconds / 2)
                served.child.command("trace_on")
                tracer.enable()
                sink = SpanSink()
                phase = self.loops(served, segment, seconds / 2)
                tracer.disable()
                served.child.command("trace_off")
                facts["parent_spans"] = sink.stop()
                facts["dropped"] = sink.dropped
        except BaseException:
            served.kill()
            raise
        reply = served.close(spans=str(self.trace_dir / f"server-{segment}.jsonl") if trace else None)
        facts["counters"] = reply["counters"]
        facts["dropped"] = facts.get("dropped", False) or reply["dropped"]
        rows = sum(s.ranks for s in self.specs) * data.NUM_EVENTS
        return Segment(phase, served.child.peak_rss_kb, archive_bytes(served.db) / rows,
                       facts, untraced)


class Analyze(_ServedWorkload):
    """One analyst drilling into seeded trials over one connection."""

    name = "analyze"
    connections = 1

    def prepare_oracle(self) -> None:
        # Drill-downs go to the small runs; the big run only makes the
        # archive large (each request scans the whole archive today).
        self.targets = [s for s in self.specs if s.ranks == self.size["ranks"]]
        self.answers = {
            s.name: oracle.TrialAnswers(data.profile(self.seed, data.SERVED, s.index, s.ranks))
            for s in self.targets
        }

    def op_factory(self, served: Served, connection: int, segment: int) -> Callable[[int], int]:
        rng = random.Random(f"{self.seed}/analyze/{connection}/{segment}")
        client = served.clients[connection]

        def op(_i: int) -> int:
            spec = self.targets[rng.randrange(len(self.targets))]
            _analyze_op(client, served.trial_ids[spec.name], self.answers[spec.name])
            # every request of the drill-down loads the whole trial
            return ANALYZE_REQUESTS * spec.ranks * data.NUM_EVENTS

        return op


class Browse(_ServedWorkload):
    """Two analysts walking the catalog tree over two connections."""

    name = "browse"
    connections = BROWSE_CONNECTIONS

    def prepare_oracle(self) -> None:
        self.catalog = oracle.Catalog(self.specs)

    def op_factory(self, served: Served, connection: int, segment: int) -> Callable[[int], int]:
        rng = random.Random(f"{self.seed}/browse/{connection}/{segment}")
        client = served.clients[connection]

        def op(_i: int) -> int:
            return _browse_op(client, self.catalog, self.specs[rng.randrange(len(self.specs))])

        return op


# -- ingest --------------------------------------------------------------------

class Ingest(Workload):
    """One importer storing a fixed seeded sequence of TAU profile
    directories into an archive that starts with a 512-rank base trial."""

    name = "ingest"

    def rows_per_s(self, phase: Phase) -> float:
        return phase.rows / sum(phase.latencies)  # over the import times

    def setup(self, segdir: Path, trace: bool) -> tuple[Child, Path, list]:
        profiles = [data.profile(self.seed, data.IMPORTS, k, self.size["ranks"])
                    for k in range(self.size["imports"])]
        for k, p in enumerate(profiles):
            data.write_tau(p, segdir / "inputs" / f"import-{k:03d}")
        db = segdir / "archive.mdb"
        argv = ["--db", str(db)]
        check_program_argv(argv)
        child = Child([str(BENCH_DIR / "ingest_child.py"), *argv, "--seed", str(self.seed),
                       "--inputs", str(segdir / "inputs"),
                       "--base-ranks", str(self.size["base_ranks"])]
                      + (["--trace"] if trace else []))
        child.read()
        return child, db, profiles

    def measure(self, state: tuple, segment: int, seconds: float, trace: bool) -> Segment:
        child, db, profiles = state
        base_rows = self.size["base_ranks"] * data.NUM_EVENTS
        # The seed's trajectory: import k always meets the same archive.
        expected = [base_rows + sum(p.rows for p in profiles[:k]) for k in range(len(profiles))]
        try:
            t0 = time.perf_counter()
            # a traced run compares a traced import with its two neighbours
            imports = child.command("run", seconds=seconds, expected_rows=expected,
                                    min_imports=3 if trace else 1)["imports"]
            elapsed = time.perf_counter() - t0
            stored = {name: (rows, total) for name, rows, total in child.command("verify")["trials"]}
        except BaseException:
            child.kill()
            raise
        reply = child.close(spans=str(self.trace_dir / f"importer-{segment}.jsonl") if trace else None)
        phase = Phase(attempted=len(imports), elapsed=elapsed)
        for k, record in enumerate(imports):
            record["segment"] = segment
            name = f"import-{k:03d}"
            try:
                if name not in stored:
                    raise oracle.Mismatch(f"{name} missing from the archive")
                oracle.check_import(name, *stored[name], profiles[k])
            except oracle.Mismatch as exc:
                phase.failed += 1
                record_error(self.errors, exc)
            else:
                phase.latencies.append(record["seconds"])
                phase.rows += record["rows"]
        total_rows = sum(rows for rows, _ in stored.values())
        return Segment(phase, child.peak_rss_kb, archive_bytes(db) / total_rows, {
            "imports": imports, "dropped": reply["dropped"],
            "checkpoint_bytes_per_row": db.stat().st_size / total_rows,
        })


# -- reopen --------------------------------------------------------------------

class Reopen(Workload):
    """Sequential cold starts of ``perfdmf list`` on a checkpointed archive."""

    name = "reopen"

    def setup(self, segdir: Path, trace: bool) -> tuple[Path, list[str], int]:
        db = segdir / "archive.mdb"
        out, _, _ = run_program([str(BENCH_DIR / "list_child.py"), "build", "--db", str(db),
                                 "--seed", str(self.seed),
                                 "--trials", "2", "--ranks", str(self.size["reopen_ranks"])])
        built = json.loads(out)
        # Warm the bytecode cache and every code path of a cold ``list``
        # on a throwaway archive.
        run_program(["-m", "repro.cli", "list", "--db", f"minisql://{segdir / 'warm.mdb'}"])
        return db, built["trials"], built["rows"]

    def measure(self, state: tuple, segment: int, seconds: float, trace: bool) -> Segment:
        db, trials, rows = state
        argv = ["list", "--db", f"minisql://{db}"]
        check_program_argv(argv)
        ops: list[dict[str, Any]] = []

        def op(i: int) -> int:
            # traced runs alternate plain and traced cold starts
            traced = trace and (segment + i) % 2 == 1
            if traced:
                spans = self.trace_dir / f"list-{segment}-{i}.jsonl"
                out, wall, rss = run_program([str(BENCH_DIR / "list_child.py"), *argv,
                                              "--spans", str(spans)])
            else:
                out, wall, rss = run_program(["-m", "repro.cli", *argv])
            ops.append({"seconds": wall, "rss_kb": rss, "traced": traced})
            oracle.check_listing(out, trials)
            return rows  # recovered from the checkpoint

        phase = closed_loop(op, seconds, self.errors)
        return Segment(phase, statistics.median(o["rss_kb"] for o in ops),
                       archive_bytes(db) / rows, {"ops": ops, "rows": rows, "dropped": False})

"""Command-line tools for the PerfDMF framework.

The original PerfDMF distribution shipped shell tools
(``perfdmf_configure``, ``perfdmf_createapp``, ``perfdmf_loadtrial``)
so analysts could drive the framework without writing Java.  This module
is their Python equivalent: one entry point with subcommands::

    python -m repro.cli configure  --db sqlite:///tmp/perf.db
    python -m repro.cli load       --db ... --app evh1 --exp scaling \\
                                   --trial P=8 /path/to/profiles
    python -m repro.cli list       --db ...
    python -m repro.cli show       --db ... --trial-id 3 [--view summary]
    python -m repro.cli export     --db ... --trial-id 3 -o trial.xml
    python -m repro.cli aggregate  --db ... --trial-id 3 --event riemann \\
                                   --op mean
    python -m repro.cli derive     --db ... --trial-id 3 --name FLOPS \\
                                   --expr "PAPI_FP_OPS / TIME"
    python -m repro.cli speedup    --db ... --app evh1 --exp scaling
    python -m repro.cli cluster    --db ... --trial-id 3 --metric PAPI_FP_OPS

Every subcommand returns a process exit code and prints plain text, so
the tools compose in shell pipelines; all database work goes through the
same public API the library exposes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.io_ import export_xml
from .core.session import PerfDMFSession
from .core.toolkit import SpeedupAnalyzer
from .paraprof import (
    ArchiveManager, ProfileBrowser, aggregate_view, summary_text_view,
    comparative_event_view, userevent_view,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfdmf",
        description="PerfDMF performance data management tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--db", required=True,
            help="database URL, e.g. sqlite:///path/archive.db, "
                 "minisql://name (in-memory), or minisql:///path/archive.mdb "
                 "(durable file archive with WAL crash recovery)",
        )

    p = sub.add_parser("configure", help="create the PerfDMF schema")
    add_db(p)

    def add_trace(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record trace spans and write them to FILE on exit "
                 "(Chrome trace-event format; .jsonl for JSON lines)",
        )

    p = sub.add_parser("load", help="import a profile into the archive")
    add_db(p)
    p.add_argument("target", help="profile file or directory")
    p.add_argument("--app", required=True, help="application name")
    p.add_argument("--exp", required=True, help="experiment name")
    p.add_argument("--trial", required=True, help="trial name")
    p.add_argument("--format", dest="format_name", default=None,
                   help="profile format (default: auto-detect)")
    p.add_argument("--stats", action="store_true",
                   help="print per-stage ingest timings after the load")
    add_trace(p)

    p = sub.add_parser("list", help="list the application/experiment/trial tree")
    add_db(p)

    p = sub.add_parser("show", help="display a stored trial")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("--view", default="aggregate",
                   choices=("aggregate", "summary", "userevents", "event"))
    p.add_argument("--event", default=None, help="event name for --view event")
    p.add_argument("--top", type=int, default=20)

    p = sub.add_parser("export", help="export a trial to common XML")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("aggregate", help="run a SQL aggregate on a trial")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("--op", default="mean",
                   choices=("min", "max", "mean", "sum", "count", "stddev"))
    p.add_argument("--column", default="exclusive")
    p.add_argument("--event", default=None)
    p.add_argument("--metric", default=None)
    add_trace(p)

    p = sub.add_parser("derive", help="add a derived metric to a stored trial")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--expr", required=True,
                   help='e.g. "PAPI_FP_OPS / TIME"')

    p = sub.add_parser("speedup", help="speedup analysis over an experiment")
    add_db(p)
    p.add_argument("--app", required=True)
    p.add_argument("--exp", required=True)
    p.add_argument("--top", type=int, default=0,
                   help="limit report to the N worst-scaling routines")

    p = sub.add_parser("cluster", help="k-means cluster analysis of a trial")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("--metric", default=None)
    p.add_argument("-k", type=int, default=None,
                   help="cluster count (default: silhouette-selected)")
    p.add_argument("--max-k", type=int, default=6)

    p = sub.add_parser("transfer", help="copy trials between archives")
    p.add_argument("--from-db", required=True, dest="from_db")
    p.add_argument("--to-db", required=True, dest="to_db")
    p.add_argument("--trial-id", type=int, default=None,
                   help="one trial (default: synchronise everything missing)")
    p.add_argument("--rename", default=None)

    p = sub.add_parser("workflow", help="run a JSON analysis workflow")
    add_db(p)
    p.add_argument("file", help="path to the workflow JSON file")

    p = sub.add_parser("serve", help="start a PerfExplorer analysis server")
    # --db is not required here: a --replica-of server gets its database
    # from the primary's checkpoint + WAL, not from a URL.
    p.add_argument(
        "--db", default=None,
        help="database URL, e.g. sqlite:///path/archive.db, "
             "minisql://name (in-memory), or minisql:///path/archive.mdb "
             "(durable file archive with WAL crash recovery); required "
             "unless --replica-of is given",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--once", action="store_true",
                   help="print the address and exit (testing)")
    p.add_argument("--telemetry-port", type=int, default=0, metavar="PORT",
                   help="HTTP port for /metrics, /healthz and /stats.json "
                        "(default: any free port)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="do not start the HTTP telemetry endpoint")
    p.add_argument("--replica-of", default=None, metavar="HOST:PORT",
                   help="serve as a read-only replica of this primary: "
                        "bootstrap from its checkpoint, tail its WAL, "
                        "reject mutating methods (--db is ignored)")
    p.add_argument("--replica-name", default=None,
                   help="replica identity reported to the primary "
                        "(default: replica-<pid>)")
    p.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                   help="admission control: shed requests (RETRY_LATER) "
                        "past N concurrent dispatches")
    p.add_argument("--core", default="async", choices=("async", "threaded"),
                   help="serving core: 'async' (event-loop multiplexer, "
                        "default) or 'threaded' (one thread per "
                        "connection, the pre-rebuild engine)")
    p.add_argument("--max-connections", type=int, default=None, metavar="N",
                   help="async core: refuse connections past N concurrent "
                        "clients (counted in "
                        "server.connections_refused_total)")
    p.add_argument("--executor-threads", type=int, default=8, metavar="N",
                   help="async core: worker threads executing dispatched "
                        "requests (default 8)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="async core: reap connections idle this long with "
                        "no request in flight (default: never)")
    p.add_argument("--partial-frame-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="async core: reap connections stalled mid-frame "
                        "this long — the slowloris guard (default 30)")
    add_trace(p)

    p = sub.add_parser(
        "replicas",
        help="show a live server's replication role, attached replicas "
             "and lag",
    )
    p.add_argument("server", metavar="HOST:PORT",
                   help="address of the primary or replica to inspect")
    p.add_argument("--format", default="text", choices=("text", "json"))

    p = sub.add_parser(
        "stats", help="dump/reset/watch the observability metrics registry"
    )
    p.add_argument(
        "--db", default=None,
        help="absorb this database's counters into the registry first",
    )
    p.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="read a live PerfExplorer server's registry over RPC "
             "instead of this process's (tolerates server restarts "
             "under --watch)",
    )
    p.add_argument("--format", default="text",
                   choices=("text", "json", "prometheus"))
    p.add_argument("--reset", action="store_true",
                   help="zero every metric after printing")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="re-print every SECONDS until interrupted")
    p.add_argument("--watch-count", type=int, default=None,
                   help=argparse.SUPPRESS)  # bounded watch, for tests

    p = sub.add_parser(
        "bench",
        help="continuous benchmarking: archive BENCH_*.json runs, "
             "report history, detect regressions",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def add_history(bp: argparse.ArgumentParser) -> None:
        bp.add_argument(
            "--history", default="bench_history.mdb",
            help="bench history archive: a .mdb path or any database "
                 "URL (default: ./bench_history.mdb)",
        )

    bp = bench_sub.add_parser(
        "ingest", help="store BENCH_*.json payloads as trials"
    )
    add_history(bp)
    bp.add_argument("files", nargs="+", help="BENCH_*.json files to ingest")
    bp.add_argument("--sha", default=None,
                    help="git SHA for files missing an envelope")
    bp.add_argument("--timestamp", default=None,
                    help="ISO timestamp for files missing an envelope")

    bp = bench_sub.add_parser("report", help="print the stored history")
    add_history(bp)
    bp.add_argument("--key", default=None, metavar="GLOB",
                    help="only series matching this experiment.metric glob")
    bp.add_argument("--last", type=int, default=8,
                    help="show at most the last N runs per series")

    bp = bench_sub.add_parser(
        "regress",
        help="windowed change-point detection (Welch's t-test + "
             "median-shift guard); exits 2 when a regression is found",
    )
    add_history(bp)
    bp.add_argument("--key", default=None, metavar="GLOB",
                    help="only test series matching this glob")
    bp.add_argument("--policy", default=None, metavar="FILE",
                    help="JSON policy with per-key threshold overrides")
    bp.add_argument("--threshold", type=float, default=None,
                    help="minimum worse-direction median shift "
                         "(default 0.25)")
    bp.add_argument("--alpha", type=float, default=None,
                    help="Welch p-value cut (default 0.01)")
    bp.add_argument("--recent", type=int, default=None,
                    help="runs in the regression window (default 3)")
    bp.add_argument("--baseline", type=int, default=None,
                    help="max runs in the baseline window (default 12)")
    bp.add_argument("--min-runs", type=int, default=None,
                    help="series shorter than this are skipped (default 6)")
    bp.add_argument("--report", default=None, metavar="FILE",
                    help="also write the report to FILE")
    bp.add_argument("--strict", action="store_true",
                    help="also fail when the archive is missing or empty")

    p = sub.add_parser(
        "sql", help="run one SQL statement (e.g. EXPLAIN ANALYZE) and "
                    "print the result rows"
    )
    add_db(p)
    p.add_argument("statement", help="the SQL statement to execute")

    p = sub.add_parser("shell", help="interactive ParaProf archive shell")
    add_db(p)

    p = sub.add_parser("report", help="write a static HTML report of a trial")
    add_db(p)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--title", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "configure": _cmd_configure,
        "load": _cmd_load,
        "list": _cmd_list,
        "show": _cmd_show,
        "export": _cmd_export,
        "aggregate": _cmd_aggregate,
        "derive": _cmd_derive,
        "speedup": _cmd_speedup,
        "cluster": _cmd_cluster,
        "transfer": _cmd_transfer,
        "workflow": _cmd_workflow,
        "serve": _cmd_serve,
        "replicas": _cmd_replicas,
        "shell": _cmd_shell,
        "report": _cmd_report,
        "stats": _cmd_stats,
        "sql": _cmd_sql,
        "bench": _cmd_bench,
    }[args.command]
    tracing = _start_trace(args)
    try:
        return handler(args)
    except (ValueError, LookupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            _finish_trace(args)


# -- tracing plumbing ---------------------------------------------------------


def _start_trace(args) -> bool:
    """Enable span collection when the subcommand got ``--trace FILE``."""
    if getattr(args, "trace", None) is None:
        return False
    from .obs import tracer

    tracer.clear()
    tracer.enable()
    return True


def _finish_trace(args) -> None:
    from .obs import tracer

    tracer.disable()
    path = args.trace
    if str(path).endswith(".jsonl"):
        count = tracer.export_jsonl(path)
    else:
        count = tracer.export_chrome(path)
    print(f"wrote {count} trace span(s) to {path}")


# -- handlers ----------------------------------------------------------------


def _cmd_configure(args) -> int:
    session = PerfDMFSession(args.db)
    problems = session.schema.verify()
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(f"PerfDMF schema ready at {args.db}")
    session.close()
    return 0


def _cmd_load(args) -> int:
    manager = ArchiveManager(args.db)
    trial = manager.import_profile(
        args.target, args.app, args.exp, args.trial,
        format_name=args.format_name,
    )
    session = manager.session
    session.set_trial(trial)
    points = session.count_data_points()
    print(
        f"loaded trial '{args.trial}' (id={trial.id}) into "
        f"{args.app}/{args.exp}: {points:,} data points, "
        f"metrics: {', '.join(session.get_metrics())}"
    )
    if args.stats:
        _print_ingest_stats(session.connection.stats())
    session.close()
    return 0


def _print_ingest_stats(stats: dict) -> None:
    """Per-stage ingest timings collected by ``save_trial``."""
    stages = (
        ("parse", "ingest_parse_seconds"),
        ("insert", "ingest_insert_seconds"),
        ("index rebuild", "ingest_index_seconds"),
        ("summaries", "ingest_summary_seconds"),
    )
    print("ingest stage timings:")
    for label, key in stages:
        if key in stats:
            print(f"  {label:<14} {stats[key] * 1000.0:>10.1f} ms")
    if "ingest_rows" in stats:
        print(f"  {'rows':<14} {int(stats['ingest_rows']):>10,}")
    if "ingest_rows_per_second" in stats:
        print(f"  {'rows/second':<14} {stats['ingest_rows_per_second']:>10,.0f}")


def _cmd_list(args) -> int:
    manager = ArchiveManager(args.db)
    browser = ProfileBrowser(manager)
    print(browser.render_tree())
    # trial ids, for the --trial-id options
    session = manager.session
    session.reset_selection()
    rows = session.connection.query(
        "SELECT t.id, a.name, e.name, t.name FROM trial t "
        "JOIN experiment e ON t.experiment = e.id "
        "JOIN application a ON e.application = a.id ORDER BY t.id"
    )
    if rows:
        print("\ntrial ids:")
        for trial_id, app, exp, trial in rows:
            print(f"  {trial_id:>4}  {app}/{exp}/{trial}")
    session.close()
    return 0


def _cmd_show(args) -> int:
    session = PerfDMFSession(args.db)
    source = session.load_datasource(args.trial_id)
    if args.view == "aggregate":
        print(aggregate_view(source, top=args.top))
    elif args.view == "summary":
        print(summary_text_view(source))
    elif args.view == "userevents":
        print(userevent_view(source, top=args.top))
    elif args.view == "event":
        if not args.event:
            print("error: --view event requires --event", file=sys.stderr)
            return 1
        print(comparative_event_view(source, args.event))
    session.close()
    return 0


def _cmd_export(args) -> int:
    session = PerfDMFSession(args.db)
    source = session.load_datasource(args.trial_id)
    path = export_xml(source, args.output)
    print(f"exported trial {args.trial_id} to {path}")
    session.close()
    return 0


def _cmd_aggregate(args) -> int:
    session = PerfDMFSession(args.db)
    session.set_trial(args.trial_id)
    value = session.aggregate(
        args.op, args.column, event_name=args.event, metric_name=args.metric
    )
    label = args.event or "all events"
    print(f"{args.op}({args.column}) over {label}: {value}")
    session.close()
    return 0


def _cmd_derive(args) -> int:
    session = PerfDMFSession(args.db)
    session.set_trial(args.trial_id)
    session.save_derived_metric(args.name, args.expr)
    print(f"added derived metric {args.name} = {args.expr} "
          f"to trial {args.trial_id}")
    session.close()
    return 0


def _cmd_speedup(args) -> int:
    session = PerfDMFSession(args.db)
    app = session.get_application(args.app)
    if app is None:
        print(f"error: no application {args.app!r}", file=sys.stderr)
        return 1
    session.set_application(app)
    experiment = None
    for exp in session.get_experiment_list():
        if exp.name == args.exp:
            experiment = exp
            break
    if experiment is None:
        print(f"error: no experiment {args.exp!r}", file=sys.stderr)
        return 1
    session.set_experiment(experiment)
    analyzer = SpeedupAnalyzer()
    for trial in session.get_trial_list():
        processors = trial.get("node_count") or 1
        analyzer.add_trial(processors, session.load_datasource(trial))
    print(analyzer.report(top=args.top))
    session.close()
    return 0


def _cmd_cluster(args) -> int:
    from .explorer import cluster_trial, summarize_clusters

    session = PerfDMFSession(args.db)
    source = session.load_datasource(args.trial_id)
    metric_index = 0
    if args.metric is not None:
        names = [m.name for m in source.metrics]
        if args.metric not in names:
            print(f"error: trial has no metric {args.metric!r}; "
                  f"available: {names}", file=sys.stderr)
            return 1
        metric_index = names.index(args.metric)
    result = cluster_trial(source, k=args.k, metric=metric_index,
                           max_k=args.max_k)
    print(f"k = {result.k}  sizes = {result.sizes}  "
          f"silhouette = {result.silhouette:.3f}")
    for summary in summarize_clusters(result):
        features = ", ".join(
            f"{f['name']} ({f['deviation']:+.3g})"
            for f in summary["features"][:3]
        )
        print(f"cluster {summary['cluster']} "
              f"({summary['size']} threads): {features}")
    session.close()
    return 0


def _cmd_transfer(args) -> int:
    from .paraprof import synchronize, transfer_trial

    source = PerfDMFSession(args.from_db)
    destination = PerfDMFSession(args.to_db)
    if args.trial_id is not None:
        trial = transfer_trial(
            source, destination, args.trial_id, rename=args.rename
        )
        print(f"transferred trial {args.trial_id} -> "
              f"'{trial.name}' (id={trial.id}) in {args.to_db}")
    else:
        created = synchronize(source, destination)
        print(f"synchronised {len(created)} trial(s) into {args.to_db}")
        for trial in created:
            print(f"  {trial.name} (id={trial.id})")
    source.close()
    destination.close()
    return 0


def _cmd_workflow(args) -> int:
    import json

    from .explorer import WorkflowError, run_workflow

    with open(args.file, encoding="utf-8") as fh:
        steps = json.load(fh)
    session = PerfDMFSession(args.db)
    try:
        slots = run_workflow(session, steps)
    except WorkflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    printable = {
        name: value
        for name, value in slots.items()
        if not hasattr(value, "interval_events")
    }
    print(json.dumps(printable, indent=2, default=str))
    return 0


def _parse_host_port(text: str, flag: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"{flag} expects HOST:PORT, got {text!r}")
    return host, int(port_text)


def _cmd_serve(args) -> int:
    from .explorer import AnalysisServer, SocketServer, ThreadedSocketServer
    from .obs import configure_logging

    # Surface the per-request structured log on stderr.
    configure_logging(level="info")
    replica = None
    if args.replica_of:
        import os as _os

        from .db.minisql.replica import RemoteWalSource, Replica

        phost, pport = _parse_host_port(args.replica_of, "--replica-of")
        name = args.replica_name or f"replica-{_os.getpid()}"
        replica = Replica(RemoteWalSource(phost, pport, replica_id=name), name=name)
        replica.start()
        try:
            replica.catch_up(timeout=30.0)
            print(f"replica {name} caught up with {phost}:{pport} "
                  f"at lsn {replica.applied_lsn}")
        except Exception as exc:
            # Keep serving: the tail loop retries in the background and
            # the health endpoint reports the (growing) lag meanwhile.
            print(f"replica {name} still syncing with {phost}:{pport}: {exc}")
        analysis = AnalysisServer(
            replica.shared_url(), read_only=True, replica=replica
        )
    else:
        if not args.db:
            print("serve: --db is required unless --replica-of is given",
                  file=sys.stderr)
            return 2
        analysis = AnalysisServer(args.db)
    telemetry_port = None if args.no_telemetry else args.telemetry_port
    if args.core == "threaded":
        server = ThreadedSocketServer(
            analysis, host=args.host, port=args.port,
            telemetry_port=telemetry_port, max_in_flight=args.max_in_flight,
        )
    else:
        server = SocketServer(
            analysis, host=args.host, port=args.port,
            telemetry_port=telemetry_port, max_in_flight=args.max_in_flight,
            executor_threads=args.executor_threads,
            max_connections=args.max_connections,
            idle_timeout=args.idle_timeout,
            partial_frame_timeout=args.partial_frame_timeout,
        )
    host, port = server.start()
    role = "read-only replica" if replica is not None else "analysis"
    print(f"PerfExplorer {role} server listening on {host}:{port}")
    if server.telemetry_address is not None:
        thost, tport = server.telemetry_address
        print(
            f"telemetry endpoint on http://{thost}:{tport} "
            "(/metrics /healthz /stats.json)"
        )
    if args.once:
        server.stop()
        if replica is not None:
            replica.stop()
        return 0
    try:  # pragma: no cover - interactive
        import time

        while True:
            time.sleep(1)
    except KeyboardInterrupt:  # pragma: no cover
        server.stop()
        if replica is not None:
            replica.stop()
    return 0


def _cmd_replicas(args) -> int:
    import json

    from .explorer.client import PerfExplorerClient

    host, port = _parse_host_port(args.server, "server")
    with PerfExplorerClient(host, port, timeout=10.0) as client:
        status = client.replication_status()
    if args.format == "json":
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    role = status.get("role", "unknown")
    print(f"role: {role}")
    if role == "primary":
        print(f"last_lsn: {status.get('last_lsn')}")
        print(f"checkpoint_lsn: {status.get('checkpoint_lsn')}")
        replicas = status.get("replicas", {})
        if not replicas:
            print("replicas: none attached")
        for name, info in sorted(replicas.items()):
            lag = status.get("last_lsn", 0) - info.get("lsn", 0)
            print(
                f"  {name}: lsn {info.get('lsn')} "
                f"(behind by {max(0, lag)} records, last fetch "
                f"{info.get('seconds_since_fetch', '?')}s ago)"
            )
    elif role == "replica":
        for key in (
            "name", "state", "applied_lsn", "primary_lsn",
            "replication_lag_records", "replication_lag_seconds",
            "batches_applied", "resyncs", "errors",
        ):
            print(f"{key}: {status.get(key)}")
    else:
        print("(no WAL configured; replication unavailable)")
    return 0


def _cmd_report(args) -> int:
    from .paraprof import write_html_report

    session = PerfDMFSession(args.db)
    source = session.load_datasource(args.trial_id)
    title = args.title or f"PerfDMF trial {args.trial_id}"
    path = write_html_report(source, args.output, title=title)
    print(f"wrote HTML report to {path}")
    session.close()
    return 0


def _render_stats_text(snapshot: dict) -> None:
    if not snapshot:
        print("(metrics registry is empty)")
    for name, snap in snapshot.items():
        if snap["type"] == "histogram":
            if snap["count"]:
                line = (
                    f"{name}: count={snap['count']} "
                    f"sum={snap['sum']:.6g} mean={snap['mean']:.6g} "
                    f"min={snap['min']:.6g} max={snap['max']:.6g}"
                )
                if snap.get("p50") is not None:
                    line += (
                        f" p50={snap['p50']:.6g} p95={snap['p95']:.6g} "
                        f"p99={snap['p99']:.6g}"
                    )
                print(line)
            else:
                print(f"{name}: count=0")
        else:
            print(f"{name}: {snap['value']}")


def _cmd_stats(args) -> int:
    import json as _json

    from .obs import registry

    remote = None
    if args.server:
        host, _, port_text = args.server.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"error: --server expects HOST:PORT, got {args.server!r}",
                  file=sys.stderr)
            return 1
        remote = (host, int(port_text))

    client_box: list = [None]

    def fetch_snapshot() -> dict:
        """The registry snapshot — local, or a live server's via RPC."""
        if remote is None:
            if args.db:
                from .db.api import connect

                # stats() publishes the database's counters into the
                # registry; re-absorbed every tick so --watch stays live.
                conn = connect(args.db)
                conn.stats()
                conn.close()
            return registry.snapshot()
        from .explorer.client import PerfExplorerClient
        from .explorer.protocol import ConnectTimeout, ProtocolError

        try:
            if client_box[0] is None:
                client_box[0] = PerfExplorerClient(remote[0], remote[1])
            return client_box[0].get_stats()["metrics"]
        except (ConnectTimeout, ProtocolError, OSError):
            # Drop the dead connection; the next attempt redials with
            # the client's own backoff.
            if client_box[0] is not None:
                client_box[0].close()
                client_box[0] = None
            raise

    def emit(snapshot: dict) -> None:
        if args.format == "json":
            import time as _time

            print(_json.dumps(
                {"ts": _time.time(), "metrics": snapshot},
                sort_keys=True, default=str,
            ))
        elif args.format == "prometheus":
            from .obs.metrics import render_prometheus

            print(render_prometheus(snapshot), end="")
        else:
            _render_stats_text(snapshot)

    if args.watch is not None:
        import time

        from .explorer.protocol import ConnectTimeout, ProtocolError

        remaining = args.watch_count
        try:
            while True:
                try:
                    emit(fetch_snapshot())
                except (ConnectTimeout, ProtocolError, OSError) as exc:
                    # A restarting server must not kill the watch loop.
                    print(f"(server unavailable: {exc}; retrying)",
                          file=sys.stderr)
                print("--", flush=True)
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        break
                time.sleep(args.watch)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            if client_box[0] is not None:
                client_box[0].close()
        return 0
    try:
        emit(fetch_snapshot())
    finally:
        if client_box[0] is not None:
            client_box[0].close()
    if args.reset:
        registry.reset()
        print("metrics registry reset", file=sys.stderr)
    return 0


def _cmd_sql(args) -> int:
    from .db.api import DatabaseError, connect

    conn = connect(args.db)
    try:
        cursor = conn.execute(args.statement)
        if cursor.description:
            headers = [d[0] for d in cursor.description]
            print("\t".join(headers))
            for row in cursor.fetchall():
                print("\t".join(str(value) for value in row))
        else:
            print(f"ok ({cursor.rowcount} row(s) affected)")
        conn.commit()
    except DatabaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        conn.close()
    return 0


def _cmd_bench(args) -> int:
    return {
        "ingest": _cmd_bench_ingest,
        "report": _cmd_bench_report,
        "regress": _cmd_bench_regress,
    }[args.bench_command](args)


def _cmd_bench_ingest(args) -> int:
    from .obs.bench import BenchArchive, tidy_archive

    archive = BenchArchive(args.history)
    total = 0
    try:
        for path in args.files:
            runs = archive.ingest_file(
                path, default_sha=args.sha, default_timestamp=args.timestamp
            )
            total += len(runs)
            sections = ", ".join(r.experiment for r in runs) or "nothing new"
            print(f"{path}: stored {len(runs)} run(s) ({sections})")
    finally:
        archive.close()
    tidy_archive(args.history)
    print(f"ingested {total} new run(s) into {args.history}")
    return 0


def _cmd_bench_report(args) -> int:
    import fnmatch

    from .obs.bench import exact_quantile, median, open_for_reading

    archive = open_for_reading(args.history)
    try:
        experiments = archive.experiments()
        if not experiments:
            print("(bench history is empty)")
            return 0
        for name, trial_count in experiments:
            series = archive.series(name)
            keys = sorted(
                key for key in series
                if args.key is None
                or fnmatch.fnmatchcase(f"{name}.{key}", args.key)
                or fnmatch.fnmatchcase(key, args.key)
            )
            if not keys:
                continue
            print(f"{name} ({trial_count} runs)")
            for key in keys:
                points = series[key][-args.last:]
                values = [value for _, value in points]
                trend = " -> ".join(f"{value:.6g}" for value in values)
                print(
                    f"  {key}: {trend}  "
                    f"(n={len(series[key])} p50={median(values):.6g} "
                    f"p95={exact_quantile(values, 0.95):.6g})"
                )
            last_run = series[keys[0]][-1][0]
            print(f"  last run: {last_run.timestamp} @ {last_run.sha12}")
    finally:
        archive.close()
    return 0


def _cmd_bench_regress(args) -> int:
    import dataclasses
    import os

    from .obs.bench import (
        RegressPolicy, detect_regressions, format_regress_report,
        open_for_reading,
    )

    missing = "://" not in args.history and not os.path.exists(args.history)
    if missing:
        print(f"bench history {args.history} does not exist", file=sys.stderr)
        return 2 if args.strict else 0

    policy = (
        RegressPolicy.from_file(args.policy) if args.policy else RegressPolicy()
    )
    overrides = {
        field: getattr(args, field)
        for field in ("threshold", "alpha", "recent", "baseline", "min_runs")
        if getattr(args, field) is not None
    }
    if overrides:
        policy = dataclasses.replace(
            policy, defaults=dataclasses.replace(policy.defaults, **overrides)
        )

    archive = open_for_reading(args.history)
    try:
        report = detect_regressions(archive, policy, key_filter=args.key)
    finally:
        archive.close()
    text = format_regress_report(report)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.report}", file=sys.stderr)
    if args.strict and not report.checked:
        print("--strict: no series had enough history to test",
              file=sys.stderr)
        return 2
    return 2 if report.regressed else 0


def _cmd_shell(args) -> int:  # pragma: no cover - interactive
    from .paraprof import run_shell

    run_shell(args.db)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

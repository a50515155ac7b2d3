"""Continuous benchmarking: archive BENCH_*.json runs, detect regressions.

The source paper names "performance regression detection" as future
work; the ROOT continuous-benchmarking paper (arXiv:1812.03149) gives
the recipe: *store every benchmark run in a database, detect
statistically significant changes, surface them in CI*.  This module
closes the loop on ourselves — the repo's own ``BENCH_*.json`` numbers
are ingested into a PerfDMF trial archive (``bench_history.mdb``,
committed in the repo and managed by the framework's own storage
engine) and ``repro bench regress`` runs windowed change-point
detection over the series.

Layout inside the archive (plain PerfDMF schema, no new tables):

* application ``repro-bench``;
* one *experiment* per benchmark section (``e13_compile``,
  ``e12_wal_overhead``, ...);
* one *trial* per benchmark run, named ``<timestamp>@<git-sha>``, with
  the run envelope (git SHA, timestamp, host cores, schema version and
  a dedup ``run_key``) serialised into ``trial.xml_metadata`` and the
  rank count in ``trial.node_count``;
* one *metric* row per flattened numeric key of the payload
  (``patterns.scan_agg.speedup``, ``ingest.parallel_seconds``, ...),
  each with a single ``interval_location_profile`` row under a shared
  ``bench`` interval event carrying the value.

Because the history is ordinary trials, every existing surface works on
it: ``repro list``, ``repro sql``, PerfExplorer, archive transfer.

Change-point detection (:func:`detect_regressions`) compares the last
``recent`` runs against the preceding ``baseline`` window per metric
key with **Welch's t-test** (unequal variances, pure-stdlib student-t
survival function via the regularized incomplete beta) AND a
**median-shift guard** — both must fire, so a single noisy run cannot
page anyone, and a tiny-but-consistent shift below the practical
threshold stays quiet.  Thresholds are configurable per benchmark key
(:class:`RegressPolicy`, fnmatch patterns).
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from .log import get_logger

_log = get_logger("repro.obs.bench")

#: Version of the BENCH_*.json envelope written by the harness.
ENVELOPE_VERSION = 1

#: Envelope keys; everything else at the top level is legacy payload.
_ENVELOPE_KEYS = ("schema_version", "git_sha", "timestamp", "host_cores")

#: Application name the bench history lives under.
BENCH_APPLICATION = "repro-bench"

#: The shared interval event all bench metric values hang off.
BENCH_EVENT = "bench"

#: Default committed history archive at the repo root.
DEFAULT_HISTORY = "bench_history.mdb"


# ---------------------------------------------------------------------------
# Envelope: what every benchmark writer emits
# ---------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    """The current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def bench_envelope(
    sha: Optional[str] = None, timestamp: Optional[str] = None
) -> dict[str, Any]:
    """The common envelope every ``BENCH_*.json`` writer wraps around
    its payload.  The harness (CI) pins provenance via the
    ``REPRO_BENCH_SHA`` / ``REPRO_BENCH_TIMESTAMP`` environment
    variables; interactive runs fall back to ``git rev-parse`` and the
    current UTC time.
    """
    sha = sha or os.environ.get("REPRO_BENCH_SHA") or _git_sha()
    timestamp = (
        timestamp
        or os.environ.get("REPRO_BENCH_TIMESTAMP")
        or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    return {
        "schema_version": ENVELOPE_VERSION,
        "git_sha": sha,
        "timestamp": timestamp,
        "host_cores": os.cpu_count() or 1,
    }


def write_bench_json(
    path: str | os.PathLike, section: str, payload: Mapping[str, Any]
) -> dict[str, Any]:
    """Merge one benchmark section into ``path`` under the envelope.

    All writers (E1/E6 via the benchmarks conftest, E12–E17 directly)
    go through here, so every emitted file has the same shape and
    ``bench ingest`` needs no per-file special cases.  A pre-envelope
    file is upgraded in place: its top-level dict sections move under
    ``benchmarks``.  Returns the document written.
    """
    path = Path(path)
    doc: dict[str, Any] = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    sections = doc.get("benchmarks")
    if not isinstance(sections, dict):
        # Legacy layout: sections sat at the top level.
        sections = {
            k: v for k, v in doc.items()
            if k not in _ENVELOPE_KEYS and isinstance(v, dict)
        }
    sections[section] = dict(payload)
    doc = bench_envelope()
    doc["benchmarks"] = sections
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def normalize_document(
    doc: Mapping[str, Any],
    *,
    default_sha: Optional[str] = None,
    default_timestamp: Optional[str] = None,
) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
    """Split one BENCH document into (envelope, sections).

    Envelope-format documents pass through; legacy documents (top-level
    sections, no envelope) get ``default_sha``/``default_timestamp``
    filled in — that is how the committed history was seeded from git
    history, where the commit supplies both.
    """
    sections = doc.get("benchmarks")
    if isinstance(sections, dict):
        envelope = {k: doc.get(k) for k in _ENVELOPE_KEYS}
    else:
        sections = {
            k: v for k, v in doc.items()
            if k not in _ENVELOPE_KEYS and isinstance(v, dict)
        }
        envelope = {k: doc.get(k) for k in _ENVELOPE_KEYS}
    if not envelope.get("git_sha"):
        envelope["git_sha"] = default_sha
    if not envelope.get("timestamp"):
        envelope["timestamp"] = default_timestamp or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
    envelope.setdefault("schema_version", ENVELOPE_VERSION)
    clean = {
        name: payload for name, payload in sections.items()
        if isinstance(payload, dict) and flatten_metrics(payload)
    }
    return envelope, clean


def flatten_metrics(
    payload: Mapping[str, Any], prefix: str = ""
) -> dict[str, float]:
    """Numeric leaves of a nested payload as dot-joined keys.

    Booleans are configuration, not measurements, and are dropped.
    """
    out: dict[str, float] = {}
    for key in sorted(payload):
        value = payload[key]
        full = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten_metrics(value, f"{full}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)) and math.isfinite(value):
            out[full] = float(value)
    return out


# ---------------------------------------------------------------------------
# Statistics: Welch's t-test on stdlib only
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    FPMIN = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-12:
            break
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        return 0.5
    x = df / (df + t * t)
    p = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variances t-test between two samples."""

    t: float
    df: float
    p_value: float          # two-sided
    mean_a: float
    mean_b: float


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's t-test of ``a`` vs ``b`` (two-sided p-value).

    Degenerate inputs resolve conservatively: if both samples are
    constant the p-value is 1.0 when the constants agree and 0.0 when
    they differ (the change is certain, not statistical).
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("welch_t_test needs >= 2 observations per sample")
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        identical = ma == mb
        return WelchResult(
            t=0.0 if identical else math.inf,
            df=float(na + nb - 2),
            p_value=1.0 if identical else 0.0,
            mean_a=ma, mean_b=mb,
        )
    t = (ma - mb) / math.sqrt(se2)
    num = se2 * se2
    den = 0.0
    if va > 0:
        den += (va / na) ** 2 / (na - 1)
    if vb > 0:
        den += (vb / nb) ** 2 / (nb - 1)
    df = num / den if den > 0 else float(na + nb - 2)
    p = 2.0 * student_t_sf(abs(t), df)
    return WelchResult(t=t, df=df, p_value=min(p, 1.0), mean_a=ma, mean_b=mb)


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Exact q-quantile of a small sample (linear interpolation)."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lo = int(math.floor(position))
    hi = min(lo + 1, len(ordered) - 1)
    fraction = position - lo
    return ordered[lo] + fraction * (ordered[hi] - ordered[lo])


def median(values: Sequence[float]) -> float:
    return exact_quantile(values, 0.5)


# ---------------------------------------------------------------------------
# The archive
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRun:
    """One benchmark run as stored in (and read back from) the archive."""

    trial_id: int
    experiment: str
    timestamp: str
    git_sha: Optional[str]
    metrics: dict[str, float]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def sha12(self) -> str:
        return (self.git_sha or "unknown")[:12]


def archive_url(path_or_url: str | os.PathLike) -> str:
    """A filesystem path becomes a durable MiniSQL file URL; URLs pass
    through untouched (so tests can use sqlite/in-memory archives)."""
    text = str(path_or_url)
    if "://" in text:
        return text
    path = Path(text).absolute()
    if path.suffix == ".mdb":
        return f"minisql:///{path}"
    return f"minisql://file:{path}"


def _run_key(section: str, envelope: Mapping[str, Any],
             metrics: Mapping[str, float]) -> str:
    import hashlib

    blob = json.dumps(
        [section, envelope.get("git_sha"), envelope.get("timestamp"),
         sorted(metrics.items())],
        sort_keys=True,
    )
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


class BenchArchive:
    """Bench-run storage on top of an ordinary PerfDMF archive."""

    def __init__(self, path_or_url: str | os.PathLike, create: bool = True):
        from ..core.session import PerfDMFSession

        self.url = archive_url(path_or_url)
        self.session = PerfDMFSession(self.url, create=create)
        self.connection = self.session.connection

    def close(self) -> None:
        self.session.close()

    def __enter__(self) -> "BenchArchive":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writing -------------------------------------------------------------

    def _application_id(self) -> int:
        app = self.session.get_or_create_application(
            BENCH_APPLICATION,
            description="continuous benchmarking history of this repository",
        )
        assert app.id is not None
        return app.id

    def _experiment_id(self, name: str, app_id: int) -> int:
        row = self.connection.query_one(
            "SELECT id FROM experiment WHERE application = ? AND name = ?",
            (app_id, name),
        )
        if row is not None:
            return row[0]
        exp = self.session.create_experiment(app_id, name)
        assert exp.id is not None
        return exp.id

    def _existing_run_keys(self, experiment_id: int) -> set[str]:
        keys = set()
        for (metadata,) in self.connection.query(
            "SELECT xml_metadata FROM trial WHERE experiment = ?",
            (experiment_id,),
        ):
            try:
                keys.add(json.loads(metadata)["run_key"])
            except (TypeError, ValueError, KeyError):
                continue
        return keys

    def ingest_document(
        self,
        doc: Mapping[str, Any],
        *,
        source: str = "<memory>",
        default_sha: Optional[str] = None,
        default_timestamp: Optional[str] = None,
    ) -> list[BenchRun]:
        """Store every benchmark section of ``doc`` as one trial each.

        Re-ingesting an identical run (same section, SHA, timestamp and
        metric values) is a no-op — ingest is idempotent, so CI can
        always run it unconditionally.  Returns the runs stored.
        """
        envelope, sections = normalize_document(
            doc, default_sha=default_sha, default_timestamp=default_timestamp
        )
        stored: list[BenchRun] = []
        if not sections:
            return stored
        app_id = self._application_id()
        for section in sorted(sections):
            metrics = flatten_metrics(sections[section])
            exp_id = self._experiment_id(section, app_id)
            run_key = _run_key(section, envelope, metrics)
            if run_key in self._existing_run_keys(exp_id):
                _log.info("bench_ingest_duplicate", section=section,
                          run_key=run_key, source=source)
                continue
            stored.append(self._store_run(
                exp_id, section, envelope, metrics, run_key, source
            ))
        self.connection.commit()
        return stored

    def ingest_file(self, path: str | os.PathLike, **kwargs: Any) -> list[BenchRun]:
        doc = json.loads(Path(path).read_text())
        kwargs.setdefault("source", str(path))
        return self.ingest_document(doc, **kwargs)

    def _store_run(
        self,
        experiment_id: int,
        section: str,
        envelope: Mapping[str, Any],
        metrics: Mapping[str, float],
        run_key: str,
        source: str,
    ) -> BenchRun:
        conn = self.connection
        sha = envelope.get("git_sha")
        timestamp = envelope["timestamp"]
        metadata = {
            "schema_version": envelope.get("schema_version", ENVELOPE_VERSION),
            "git_sha": sha,
            "timestamp": timestamp,
            "host_cores": envelope.get("host_cores"),
            "run_key": run_key,
            "source": os.path.basename(source),
        }
        name = f"{timestamp}@{(sha or 'unknown')[:12]}"
        # The (experiment, name) pair is UNIQUE; an identical run was
        # already deduplicated, so a collision means a re-run with
        # different numbers — suffix it into its own trial.
        suffix = 1
        base = name
        while conn.query_one(
            "SELECT id FROM trial WHERE experiment = ? AND name = ?",
            (experiment_id, name),
        ) is not None:
            suffix += 1
            name = f"{base}#{suffix}"
        ranks = metrics.get("ranks")
        conn.execute(
            "INSERT INTO trial (name, experiment, date, node_count, "
            "xml_metadata) VALUES (?, ?, ?, ?, ?)",
            (name, experiment_id, timestamp,
             int(ranks) if ranks is not None else None,
             json.dumps(metadata, sort_keys=True)),
        )
        trial_id = conn.query_one(
            "SELECT id FROM trial WHERE experiment = ? AND name = ?",
            (experiment_id, name),
        )[0]
        conn.execute(
            "INSERT INTO interval_event (trial, name, group_name) "
            "VALUES (?, ?, ?)",
            (trial_id, BENCH_EVENT, "BENCH"),
        )
        event_id = conn.query_one(
            "SELECT id FROM interval_event WHERE trial = ? AND name = ?",
            (trial_id, BENCH_EVENT),
        )[0]
        for key in sorted(metrics):
            value = metrics[key]
            conn.execute(
                "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 0)",
                (trial_id, key),
            )
            metric_id = conn.query_one(
                "SELECT id FROM metric WHERE trial = ? AND name = ?",
                (trial_id, key),
            )[0]
            conn.execute(
                "INSERT INTO interval_location_profile (interval_event, "
                "node, context, thread, metric, inclusive, "
                "inclusive_percentage, exclusive, exclusive_percentage, "
                "inclusive_per_call, num_calls, num_subrs) "
                "VALUES (?, 0, 0, 0, ?, ?, 100.0, ?, 100.0, ?, 1, 0)",
                (event_id, metric_id, value, value, value),
            )
        _log.info("bench_ingest", section=section, trial=trial_id,
                  metrics=len(metrics), sha=(sha or "unknown")[:12])
        return BenchRun(
            trial_id=trial_id, experiment=section, timestamp=timestamp,
            git_sha=sha, metrics=dict(metrics), metadata=metadata,
        )

    # -- reading -------------------------------------------------------------

    def experiments(self) -> list[tuple[str, int]]:
        """(section name, run count) for every stored benchmark."""
        return [
            (name, count) for name, count in self.connection.query(
                "SELECT e.name, count(t.id) FROM experiment e "
                "JOIN application a ON e.application = a.id "
                "LEFT JOIN trial t ON t.experiment = e.id "
                "WHERE a.name = ? GROUP BY e.name ORDER BY e.name",
                (BENCH_APPLICATION,),
            )
        ]

    def runs(self, experiment: str) -> list[BenchRun]:
        """Every run of one benchmark section, oldest first."""
        rows = self.connection.query(
            "SELECT t.id, t.date, t.xml_metadata FROM trial t "
            "JOIN experiment e ON t.experiment = e.id "
            "JOIN application a ON e.application = a.id "
            "WHERE a.name = ? AND e.name = ?",
            (BENCH_APPLICATION, experiment),
        )
        out = []
        for trial_id, date, metadata_json in rows:
            try:
                metadata = json.loads(metadata_json) if metadata_json else {}
            except ValueError:
                metadata = {}
            values = {
                key: value for key, value in self.connection.query(
                    "SELECT m.name, ilp.exclusive "
                    "FROM interval_location_profile ilp "
                    "JOIN metric m ON ilp.metric = m.id "
                    "WHERE m.trial = ?",
                    (trial_id,),
                )
            }
            out.append(BenchRun(
                trial_id=trial_id, experiment=experiment,
                timestamp=str(date or metadata.get("timestamp") or ""),
                git_sha=metadata.get("git_sha"), metrics=values,
                metadata=metadata,
            ))
        out.sort(key=lambda r: (r.timestamp, r.trial_id))
        return out

    def series(self, experiment: str) -> dict[str, list[tuple[BenchRun, float]]]:
        """Per-metric time series: key -> [(run, value), ...] oldest first."""
        out: dict[str, list[tuple[BenchRun, float]]] = {}
        for run in self.runs(experiment):
            for key, value in run.metrics.items():
                out.setdefault(key, []).append((run, value))
        return out


def open_for_reading(path: str | os.PathLike) -> BenchArchive:
    """Open a committed ``.mdb`` history without touching the checkout.

    Opening a MiniSQL file archive creates WAL segments next to it;
    read paths (``report``, ``regress``) must not litter the repository
    or dirty CI checkouts, so they work on a temp copy.
    """
    text = str(path)
    if "://" in text:
        return BenchArchive(text, create=False)
    source = Path(text)
    if not source.exists():
        raise FileNotFoundError(f"no bench history archive at {source}")
    scratch = Path(tempfile.mkdtemp(prefix="bench-history-")) / source.name
    shutil.copy2(source, scratch)
    return BenchArchive(scratch)


def tidy_archive(path: str | os.PathLike) -> None:
    """Remove empty WAL segments a checkpointed close leaves behind, so
    the committed archive stays a single file."""
    base = Path(str(path))
    for segment in base.parent.glob(f"{base.name}.wal.*"):
        try:
            if segment.stat().st_size == 0:
                segment.unlink()
        except OSError:
            continue


# ---------------------------------------------------------------------------
# Regression detection
# ---------------------------------------------------------------------------

#: Metric-key suffixes whose direction we can infer.  Anything
#: unmatched (counters, rank counts, configuration echoes) is not
#: tested unless a policy override supplies a direction.
LOWER_IS_BETTER = (
    "_ms", "_seconds", "seconds", "_bytes", "overhead", "_fraction",
    "_retries", "_fallbacks", "_errors",
)
HIGHER_IS_BETTER = ("speedup", "_per_second", "_qps")


def infer_direction(key: str) -> Optional[str]:
    """'lower' / 'higher' (is better), or None when unknowable."""
    leaf = key.rsplit(".", 1)[-1].lower()
    for suffix in LOWER_IS_BETTER:
        if leaf.endswith(suffix):
            return "lower"
    for suffix in HIGHER_IS_BETTER:
        if leaf.endswith(suffix):
            return "higher"
    return None


@dataclass(frozen=True)
class KeyPolicy:
    """Detection knobs for one metric key (or the defaults)."""

    threshold: float = 0.25     # minimum worse-direction median shift
    alpha: float = 0.01         # Welch p-value cut
    min_runs: int = 6           # series shorter than this are skipped
    recent: int = 3             # runs in the "did it regress" window
    baseline: int = 12          # max runs in the reference window
    direction: Optional[str] = None   # override for unknown keys
    ignore: bool = False


@dataclass
class RegressPolicy:
    """Defaults plus fnmatch-keyed overrides, later patterns winning.

    The JSON form (``--policy`` / ``benchmarks/regress_policy.json``)::

        {"defaults": {"threshold": 0.25, "alpha": 0.01},
         "keys": {"e12_wal_overhead.*.wal_bytes": {"threshold": 0.6},
                  "*.ranks": {"ignore": true}}}
    """

    defaults: KeyPolicy = field(default_factory=KeyPolicy)
    overrides: list[tuple[str, dict[str, Any]]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "RegressPolicy":
        doc = json.loads(Path(path).read_text())
        defaults = KeyPolicy(**doc.get("defaults", {}))
        overrides = [
            (pattern, dict(knobs))
            for pattern, knobs in doc.get("keys", {}).items()
        ]
        return cls(defaults=defaults, overrides=overrides)

    def for_key(self, full_key: str) -> KeyPolicy:
        policy = self.defaults
        for pattern, knobs in self.overrides:
            if fnmatch.fnmatchcase(full_key, pattern):
                policy = replace(policy, **knobs)
        return policy


@dataclass(frozen=True)
class Finding:
    """One detected regression (or improvement, when asked)."""

    experiment: str
    key: str
    direction: str              # the metric's better-direction
    baseline_n: int
    recent_n: int
    baseline_median: float
    baseline_p95: float
    recent_median: float
    shift: float                # signed relative median shift
    p_value: float
    window: str                 # "<last-good-sha>..<latest-sha>"

    @property
    def full_key(self) -> str:
        return f"{self.experiment}.{self.key}"

    @property
    def effect_pct(self) -> float:
        return self.shift * 100.0


@dataclass
class RegressReport:
    """Everything one detection pass looked at."""

    findings: list[Finding] = field(default_factory=list)
    checked: int = 0            # series actually tested
    skipped_short: int = 0      # series below min_runs
    skipped_direction: int = 0  # keys with no inferable direction
    experiments: int = 0

    @property
    def regressed(self) -> bool:
        return bool(self.findings)


def _is_worse(shift: float, direction: str) -> bool:
    return shift > 0 if direction == "lower" else shift < 0


def detect_regressions(
    archive: BenchArchive,
    policy: Optional[RegressPolicy] = None,
    *,
    key_filter: Optional[str] = None,
) -> RegressReport:
    """Windowed change-point detection over every stored series.

    A series regresses when, comparing the last ``recent`` runs against
    the preceding ``baseline`` runs:

    * Welch's t-test rejects equal means at ``alpha``, AND
    * the median shifted in the worse direction by more than
      ``threshold`` (relative).

    Both conditions are required: the t-test alone fires on tiny
    consistent shifts (statistically real, practically irrelevant) and
    the median guard alone fires on noise.
    """
    policy = policy or RegressPolicy()
    report = RegressReport()
    for experiment, _count in archive.experiments():
        report.experiments += 1
        for key, points in sorted(archive.series(experiment).items()):
            full_key = f"{experiment}.{key}"
            if key_filter and not fnmatch.fnmatchcase(full_key, key_filter):
                continue
            kp = policy.for_key(full_key)
            if kp.ignore:
                continue
            direction = kp.direction or infer_direction(key)
            if direction is None:
                report.skipped_direction += 1
                continue
            values = [value for _run, value in points]
            if len(values) < max(kp.min_runs, kp.recent + 2):
                report.skipped_short += 1
                continue
            recent = values[-kp.recent:]
            baseline = values[-(kp.recent + kp.baseline):-kp.recent]
            if len(baseline) < 2 or len(recent) < 2:
                report.skipped_short += 1
                continue
            report.checked += 1
            med_b = median(baseline)
            med_r = median(recent)
            if med_b == 0.0:
                shift = 0.0 if med_r == 0.0 else math.inf
            else:
                shift = (med_r - med_b) / abs(med_b)
            welch = welch_t_test(recent, baseline)
            if not (
                _is_worse(shift, direction)
                and abs(shift) >= kp.threshold
                and welch.p_value < kp.alpha
            ):
                continue
            recent_runs = [run for run, _v in points[-kp.recent:]]
            last_good = points[-(kp.recent + 1)][0]
            window = f"{last_good.sha12}..{recent_runs[-1].sha12}"
            report.findings.append(Finding(
                experiment=experiment, key=key, direction=direction,
                baseline_n=len(baseline), recent_n=len(recent),
                baseline_median=med_b,
                baseline_p95=exact_quantile(baseline, 0.95),
                recent_median=med_r, shift=shift,
                p_value=welch.p_value, window=window,
            ))
    report.findings.sort(key=lambda f: -abs(f.shift))
    return report


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}"


def format_regress_report(report: RegressReport) -> str:
    """The human-readable table ``repro bench regress`` prints."""
    lines = [
        f"checked {report.checked} series across "
        f"{report.experiments} benchmark(s) "
        f"({report.skipped_short} with insufficient history, "
        f"{report.skipped_direction} without a known direction)"
    ]
    if not report.findings:
        lines.append("no regressions detected")
        return "\n".join(lines)
    lines.append("")
    header = (
        f"{'benchmark metric':<44} {'change':>9} {'p-value':>9} "
        f"{'baseline p50/p95':>18} {'recent p50':>11}  commit window"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for f in report.findings:
        change = (
            "inf" if math.isinf(f.shift) else f"{f.effect_pct:+.1f}%"
        )
        lines.append(
            f"{f.full_key:<44} {change:>9} {f.p_value:>9.2g} "
            f"{_fmt(f.baseline_median):>8}/{_fmt(f.baseline_p95):<9} "
            f"{_fmt(f.recent_median):>11}  {f.window}"
        )
    lines.append("")
    lines.append(
        f"{len(report.findings)} regression(s): the recent window is "
        f"statistically and practically worse than its baseline"
    )
    return "\n".join(lines)

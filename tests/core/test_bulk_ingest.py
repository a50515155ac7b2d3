"""Parallel bulk-ingest pipeline: parse fan-out + single-writer store.

Parsing profile files in worker processes must be invisible in the
results — same payloads, same database contents — and ``save_trial``'s
bulk-load path must match the per-row legacy path on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.io_ import IngestReport, ingest_profiles, parse_profiles
from repro.core.model.columnar import ColumnarTrial
from repro.core.session import PerfDMFSession
from repro.tau.apps import SPPM
from repro.tau.writers import write_tau_profiles

RANKS = 8


@pytest.fixture(scope="module")
def profile_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("ingest")
    dirs = []
    for i in range(3):
        run = SPPM(problem_size=0.01, timesteps=1, seed=40 + i).run(RANKS)
        d = base / f"run{i}"
        write_tau_profiles(run, d)
        dirs.append(d)
    return dirs


def _payloads_equal(a: ColumnarTrial, b: ColumnarTrial) -> bool:
    if (a.event_names, a.event_groups, a.metric_names) != (
        b.event_names, b.event_groups, b.metric_names
    ):
        return False
    if not np.array_equal(a.thread_triples, b.thread_triples):
        return False
    for m in range(a.num_metrics):
        if not np.array_equal(a.inclusive[m], b.inclusive[m]):
            return False
        if not np.array_equal(a.exclusive[m], b.exclusive[m]):
            return False
    return np.array_equal(a.calls, b.calls) and np.array_equal(
        a.subroutines, b.subroutines
    )


class TestParallelParse:
    def test_parallel_matches_serial(self, profile_dirs):
        serial = parse_profiles(profile_dirs, workers=1)
        parallel = parse_profiles(profile_dirs, workers=2)  # forces the pool
        assert len(serial) == len(parallel) == len(profile_dirs)
        for a, b in zip(serial, parallel):
            assert _payloads_equal(a, b)

    def test_order_preserved_and_source_recorded(self, profile_dirs):
        payloads = parse_profiles(profile_dirs, workers=2)
        for target, payload in zip(profile_dirs, payloads):
            assert payload.metadata["ingest_source"] == str(target)

    def test_single_target_skips_pool(self, profile_dirs):
        (only,) = parse_profiles(profile_dirs[:1])
        assert only.num_threads == RANKS


class TestIngestPipeline:
    @pytest.fixture(params=["sqlite", "minisql"])
    def session(self, request):
        s = PerfDMFSession(f"{request.param}://:memory:")
        yield s
        s.close()

    def test_ingest_stores_every_trial(self, session, profile_dirs):
        app = session.create_application("sppm")
        exp = session.create_experiment(app, "e")
        report = ingest_profiles(session, exp, profile_dirs, workers=2)
        assert isinstance(report, IngestReport)
        assert report.files == len(profile_dirs)
        assert len(report.trials) == len(profile_dirs)
        assert report.rows == session.connection.scalar(
            "SELECT count(*) FROM interval_location_profile"
        )
        assert {t.name for t in report.trials} == {
            d.name for d in profile_dirs
        }

    def test_pipeline_stats_reach_connection(self, session, profile_dirs):
        app = session.create_application("sppm")
        exp = session.create_experiment(app, "e")
        report = ingest_profiles(session, exp, profile_dirs, workers=2)
        stats = session.connection.stats()
        assert stats["ingest_rows"] == report.rows
        assert stats["ingest_parse_seconds"] == report.parse_seconds
        assert stats["ingest_rows_per_second"] == report.rows_per_second
        assert report.total_seconds > 0

    def test_custom_names_and_length_check(self, session, profile_dirs):
        app = session.create_application("sppm")
        exp = session.create_experiment(app, "e")
        names = [f"trial-{i}" for i in range(len(profile_dirs))]
        report = ingest_profiles(
            session, exp, profile_dirs, workers=1, names=names
        )
        assert [t.name for t in report.trials] == names
        with pytest.raises(ValueError):
            ingest_profiles(session, exp, profile_dirs, names=["just-one"])


class TestSaveTrialBulkParity:
    @pytest.fixture(scope="class")
    def columnar(self):
        trial = ColumnarTrial.allocate(
            [f"ev{i}" for i in range(9)],
            ["TIME", "PAPI_FP_OPS"],
            ColumnarTrial.flat_topology(17),
        )
        rng = np.random.default_rng(7)
        for m in range(2):
            trial.inclusive[m][:] = rng.random((17, 9)) * 100
            trial.exclusive[m][:] = trial.inclusive[m] * 0.5
        trial.calls[:] = rng.integers(1, 50, (17, 9)).astype(float)
        trial.subroutines[:] = rng.integers(0, 5, (17, 9)).astype(float)
        return trial

    @pytest.mark.parametrize("url", ["sqlite://:memory:", "minisql://:memory:"])
    def test_bulk_and_legacy_paths_store_identical_rows(self, url, columnar):
        contents = {}
        for bulk in (True, False):
            s = PerfDMFSession(url)
            app = s.create_application("a")
            exp = s.create_experiment(app, "e")
            s.save_trial(columnar, exp, "t", bulk=bulk)
            conn = s.connection
            contents[bulk] = (
                conn.query(
                    "SELECT * FROM interval_location_profile "
                    "ORDER BY metric, interval_event, node"
                ),
                conn.query(
                    "SELECT * FROM interval_total_summary "
                    "ORDER BY metric, interval_event"
                ),
                conn.query(
                    "SELECT * FROM interval_mean_summary "
                    "ORDER BY metric, interval_event"
                ),
            )
            s.close()
        assert contents[True] == contents[False]

    def test_ingest_stats_cover_every_stage(self, columnar):
        s = PerfDMFSession("minisql://:memory:")
        app = s.create_application("a")
        exp = s.create_experiment(app, "e")
        s.save_trial(columnar, exp, "t")
        stats = s.connection.stats()
        for key in (
            "ingest_parse_seconds", "ingest_insert_seconds",
            "ingest_index_seconds", "ingest_summary_seconds",
        ):
            assert stats[key] >= 0.0
        assert stats["ingest_rows"] == columnar.num_data_points
        assert stats["ingest_rows_per_second"] > 0
        assert stats["bulk_loads"] == 1
        assert stats["bulk_index_rebuilds"] > 0
        s.close()


class TestParseRetryAndErrors:
    """Coordinator-side resilience: a failed or timed-out worker parse is
    retried once serially, and a genuinely bad file fails the batch with
    an error that names it."""

    def test_corrupt_profile_names_its_path(self, profile_dirs, tmp_path):
        from repro.core.io_.bulk import ProfileParseError

        corrupt = tmp_path / "corrupt_run"
        corrupt.mkdir()
        (corrupt / "profile.0.0.0").write_text("this is not a TAU profile\n")
        targets = [profile_dirs[0], corrupt, profile_dirs[1]]
        with pytest.raises(ProfileParseError) as exc_info:
            parse_profiles(targets, workers=2)
        assert exc_info.value.path == str(corrupt)
        assert str(corrupt) in str(exc_info.value)
        assert exc_info.value.cause is not None
        # The serial path reports identically.
        with pytest.raises(ProfileParseError) as serial_info:
            parse_profiles([corrupt], workers=1)
        assert serial_info.value.path == str(corrupt)

    def test_transient_worker_failure_retried_once(
        self, profile_dirs, monkeypatch
    ):
        """A parse that fails only in the worker process succeeds on the
        coordinator's serial retry; the batch completes with a counter
        bump instead of an error."""
        import os as _os

        from repro.core.io_ import bulk
        from repro.obs.metrics import registry as _registry

        parent_pid = _os.getpid()
        flaky_target = str(profile_dirs[1])
        real_load = bulk.load_profile

        def load_flaky_in_workers(target, format_name=None):
            # Workers are forked after the patch, so they inherit this
            # wrapper; only the coordinator process parses successfully.
            if _os.getpid() != parent_pid and str(target) == flaky_target:
                raise RuntimeError("transient worker failure")
            return real_load(target, format_name)

        monkeypatch.setattr(bulk, "load_profile", load_flaky_in_workers)
        before = _registry.counter("ingest.parse_retries").value
        payloads = parse_profiles(profile_dirs, workers=2)
        assert len(payloads) == len(profile_dirs)
        assert all(p is not None for p in payloads)
        assert payloads[1].metadata["ingest_source"] == flaky_target
        assert _registry.counter("ingest.parse_retries").value == before + 1

    def test_task_timeout_falls_back_to_serial_retry(
        self, profile_dirs, monkeypatch
    ):
        import os as _os
        import time as _time

        from repro.core.io_ import bulk

        parent_pid = _os.getpid()
        slow_target = str(profile_dirs[0])
        real_load = bulk.load_profile

        def load_slow_in_workers(target, format_name=None):
            if _os.getpid() != parent_pid and str(target) == slow_target:
                _time.sleep(15.0)  # far past the task timeout
            return real_load(target, format_name)

        monkeypatch.setattr(bulk, "load_profile", load_slow_in_workers)
        t0 = _time.perf_counter()
        payloads = parse_profiles(
            [profile_dirs[0], profile_dirs[1]], workers=2, task_timeout=1.0
        )
        elapsed = _time.perf_counter() - t0
        assert len(payloads) == 2 and all(p is not None for p in payloads)
        assert payloads[0].metadata["ingest_source"] == slow_target
        # The hung worker sleeps 15s; pool teardown must terminate it
        # rather than join it, so the whole call stays well under that.
        assert elapsed < 10.0, f"pool shutdown joined a hung worker ({elapsed:.1f}s)"

"""Tests for the vectorised columnar trial loader."""

import numpy as np
import pytest

from repro.core.model import ColumnarTrial, DataSource
from repro.core.session import PerfDMFSession
from repro.tau.apps import EVH1, Miranda, SPPM


@pytest.fixture
def session(db_url):
    s = PerfDMFSession(db_url)
    yield s
    s.close()


class TestLoadColumnar:
    def test_matches_generated_data(self, session):
        app = session.create_application("m")
        exp = session.create_experiment(app, "e")
        generated = Miranda().generate(64)
        trial = session.save_trial(generated, exp, "t")
        loaded = session.load_columnar(trial)
        assert loaded.event_names == generated.event_names
        assert loaded.metric_names == generated.metric_names
        np.testing.assert_allclose(loaded.inclusive[0], generated.inclusive[0])
        np.testing.assert_allclose(loaded.exclusive[0], generated.exclusive[0])
        np.testing.assert_allclose(loaded.calls, generated.calls)

    def test_matches_object_loader(self, session):
        app = session.create_application("e")
        exp = session.create_experiment(app, "x")
        source = EVH1(problem_size=0.05, timesteps=1).run(4)
        trial = session.save_trial(source, exp, "t")
        columnar = session.load_columnar(trial)
        objectful = ColumnarTrial.from_datasource(session.load_datasource(trial))
        assert columnar.event_names == objectful.event_names
        np.testing.assert_allclose(columnar.inclusive[0], objectful.inclusive[0])
        np.testing.assert_allclose(columnar.subroutines, objectful.subroutines)

    def test_multi_metric(self, session):
        app = session.create_application("s")
        exp = session.create_experiment(app, "x")
        source = SPPM(problem_size=0.01, timesteps=1).run(8)
        trial = session.save_trial(source, exp, "t")
        columnar = session.load_columnar(trial)
        assert columnar.num_metrics == 8
        fp_index = columnar.metric_names.index("PAPI_FP_OPS")
        assert columnar.exclusive[fp_index].sum() > 0

    def test_usable_for_clustering(self, session):
        from repro.explorer import cluster_trial

        app = session.create_application("s2")
        exp = session.create_experiment(app, "x")
        source = SPPM(problem_size=0.01, timesteps=1).run(27)
        trial = session.save_trial(source, exp, "t")
        columnar = session.load_columnar(trial)
        fp_index = columnar.metric_names.index("PAPI_FP_OPS")
        result = cluster_trial(columnar, k=2, metric=fp_index)
        assert sum(result.sizes) == 27

    def test_empty_trial_raises(self, session):
        app = session.create_application("empty")
        exp = session.create_experiment(app, "x")
        from repro.core.api.entities import Trial

        trial = Trial(session.connection, name="bare", experiment=exp.id)
        trial.save()
        with pytest.raises(ValueError, match="no stored profile data"):
            session.load_columnar(trial)

    def test_groups_preserved(self, session):
        app = session.create_application("g")
        exp = session.create_experiment(app, "x")
        source = EVH1(problem_size=0.05, timesteps=1).run(2)
        trial = session.save_trial(source, exp, "t")
        columnar = session.load_columnar(trial)
        index = columnar.event_names.index("MPI_Alltoall()")
        assert columnar.event_groups[index] == "MPI"


def scrambled_source() -> DataSource:
    """Two metrics; threads added out of (node, context, thread) order;
    event ``late`` never ran on thread (0, 0, 1)."""
    source = DataSource()
    source.add_metric("TIME")
    source.add_metric("PAPI_FP_OPS")
    main = source.add_interval_event("main", "TAU_DEFAULT")
    work = source.add_interval_event("work", "COMPUTE|MPI")
    late = source.add_interval_event("late", "IO")
    for n, triple in enumerate([(1, 0, 0), (0, 0, 1), (0, 0, 0), (2, 1, 3)]):
        thread = source.add_thread(*triple)
        for event in (late, work, main):
            if event is late and triple == (0, 0, 1):
                continue
            profile = thread.get_or_create_function_profile(event)
            for m in range(2):
                value = 10.0 * (n + 1) + 3.5 * event.index + 0.25 * m
                profile.set_inclusive(m, value * 1.5)
                profile.set_exclusive(m, value)
            profile.calls = float(n + event.index + 1)
            profile.subroutines = float(event.index)
    source.generate_statistics()
    return source


def reference_datasource(session, trial_id: int) -> DataSource:
    """load_datasource as it read location rows before the per-metric
    probe: one JOIN of the whole table against interval_event."""
    source = DataSource()
    conn = session.connection
    metric_index = {}
    for db_id, name, derived in conn.query(
        "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id",
        (trial_id,),
    ):
        metric_index[db_id] = source.add_metric(name, derived=bool(derived)).index
    event_index = {
        db_id: source.add_interval_event(name, group or "TAU_DEFAULT")
        for db_id, name, group in conn.query(
            "SELECT id, name, group_name FROM interval_event WHERE trial = ? "
            "ORDER BY id",
            (trial_id,),
        )
    }
    for event_id, node, ctx, thr, metric_id, inc, exc, calls, subrs in conn.query(
        "SELECT p.interval_event, p.node, p.context, p.thread, p.metric, "
        "p.inclusive, p.exclusive, p.num_calls, p.num_subrs "
        "FROM interval_location_profile p "
        "JOIN interval_event e ON p.interval_event = e.id WHERE e.trial = ?",
        (trial_id,),
    ):
        profile = source.add_thread(node, ctx, thr).get_or_create_function_profile(
            event_index[event_id]
        )
        m = metric_index[metric_id]
        profile.set_inclusive(m, inc)
        profile.set_exclusive(m, exc)
        if m == 0:
            profile.calls = calls
            profile.subroutines = subrs
    return source


def interval_shape(source: DataSource) -> list:
    """Threads in order, each with its profiles in order and every value."""
    return [
        (
            thread.triple,
            [
                (
                    profile.event.name, profile.event.group,
                    tuple(profile.iter_metrics()),
                    profile.calls, profile.subroutines,
                )
                for profile in thread.function_profiles.values()
            ],
        )
        for thread in source.all_threads()
        if thread.function_profiles
    ]


class TestPerMetricProbe:
    """Both loaders read location rows one metric at a time through
    ``idx_ilp_metric``; the result must equal the archive-wide JOIN's."""

    @pytest.fixture
    def trials(self, session):
        app = session.create_application("probe")
        exp = session.create_experiment(app, "x")
        decoy = session.create_experiment(app, "decoy")
        session.save_trial(Miranda().generate(8), decoy, "before")
        saved = {
            "sppm": session.save_trial(SPPM(problem_size=0.01, timesteps=1).run(8), exp, "sppm"),
            "evh1": session.save_trial(EVH1(problem_size=0.05, timesteps=1).run(4), exp, "evh1"),
            "scrambled": session.save_trial(scrambled_source(), exp, "scrambled"),
        }
        session.save_trial(Miranda().generate(8), decoy, "after")
        return saved

    @pytest.mark.parametrize("name", ["sppm", "evh1", "scrambled"])
    def test_datasource_identical_to_join(self, session, trials, name):
        trial = trials[name]
        loaded = session.load_datasource(trial)
        reference = reference_datasource(session, trial.id)
        assert [m.name for m in loaded.metrics] == [m.name for m in reference.metrics]
        assert list(loaded.interval_events) == list(reference.interval_events)
        assert interval_shape(loaded) == interval_shape(reference)

    def test_scrambled_keeps_save_order_and_missing_cell(self, session, trials):
        loaded = session.load_datasource(trials["scrambled"])
        assert [t.triple for t in loaded.all_threads()] == [
            (1, 0, 0), (0, 0, 1), (0, 0, 0), (2, 1, 3),
        ]
        # The cell that never ran is stored (as zeros) like every other.
        late = loaded.get_thread(0, 0, 1).function_profiles[
            loaded.get_interval_event("late").index
        ]
        assert late.get_exclusive(0) == 0.0 and late.calls == 0.0

    def test_atomic_events_still_loaded(self, session, trials):
        loaded = session.load_datasource(trials["evh1"])
        assert loaded.atomic_events
        assert all(t.user_event_profiles for t in loaded.all_threads())

    @pytest.mark.parametrize("name", ["sppm", "evh1", "scrambled"])
    def test_columnar_threads_follow_datasource(self, session, trials, name):
        trial = trials[name]
        columnar = session.load_columnar(trial)
        objectful = session.load_datasource(trial)
        threads = [t for t in objectful.all_threads() if t.function_profiles]
        assert [tuple(t) for t in columnar.thread_triples.tolist()] == [
            t.triple for t in threads
        ]
        expected = ColumnarTrial.from_datasource(objectful)
        for m in range(columnar.num_metrics):
            assert np.array_equal(columnar.inclusive[m], expected.inclusive[m])
            assert np.array_equal(columnar.exclusive[m], expected.exclusive[m])
        assert np.array_equal(columnar.calls, expected.calls)
        assert np.array_equal(columnar.subroutines, expected.subroutines)

    def test_unknown_trial_is_a_lookup_error(self, session, trials):
        with pytest.raises(LookupError, match="no trial id 999 in this database"):
            session.load_columnar(999)
        with pytest.raises(LookupError, match="no trial id 999 in this database"):
            session.load_datasource(999)

    def test_minisql_reads_without_full_scans(self, session, trials):
        if session.connection.dialect.name != "minisql":
            pytest.skip("access-path counters are MiniSQL's")
        before = session.connection.stats()
        session.load_columnar(trials["sppm"])
        session.load_datasource(trials["scrambled"])
        after = session.connection.stats()
        assert after["full_scans"] == before["full_scans"]
        assert after["vector_selects"] > before["vector_selects"]

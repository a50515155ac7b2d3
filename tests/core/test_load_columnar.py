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


def store_trial(session, experiment, name, metrics, events, rows):
    """A trial whose interval_location_profile rows are ``rows``, stored
    one INSERT each in the given order.  A row is (event position,
    (node, context, thread), metric position, inclusive, exclusive,
    calls, subroutines); returns the trial id, its metric ids and its
    event ids."""
    from repro.core.api.entities import Trial

    trial = Trial(session.connection, name=name, experiment=experiment.id)
    trial.save()
    conn = session.connection
    metric_ids = [
        conn.insert(
            "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 0)",
            (trial.id, metric),
        )
        for metric in metrics
    ]
    event_ids = [
        conn.insert(
            "INSERT INTO interval_event (trial, name, group_name) VALUES (?, ?, ?)",
            (trial.id, event, "TAU_DEFAULT"),
        )
        for event in events
    ]
    insert_rows(conn, rows, event_ids, metric_ids)
    return trial.id, metric_ids, event_ids


def insert_rows(conn, rows, event_ids, metric_ids):
    for e, (node, ctx, thr), m, inc, exc, calls, subrs in rows:
        conn.execute(
            "INSERT INTO interval_location_profile (interval_event, node, "
            "context, thread, metric, inclusive, inclusive_percentage, "
            "exclusive, exclusive_percentage, inclusive_per_call, num_calls, "
            "num_subrs) VALUES (?, ?, ?, ?, ?, ?, 0.0, ?, 0.0, 0.0, ?, ?)",
            (event_ids[e], node, ctx, thr, metric_ids[m], inc, exc, calls, subrs),
        )
    conn.commit()


def cell_rows(threads, metrics, events=2, start=0.0):
    """One row per (thread, event, metric) with distinct values."""
    return [
        (e, triple, m, start + 100 * t + 10 * e + m + 0.5,
         start + 100 * t + 10 * e + m + 0.25, float(t + e + 1), float(e))
        for t, triple in enumerate(threads)
        for e in range(events)
        for m in metrics
    ]


def assert_loads_like_reference(session, trial_id):
    loaded = session.load_columnar(trial_id)
    expected = ColumnarTrial.from_datasource(reference_datasource(session, trial_id))
    assert loaded.event_names == expected.event_names
    assert loaded.metric_names == expected.metric_names
    assert loaded.thread_triples.tolist() == expected.thread_triples.tolist()
    for m in range(expected.num_metrics):
        assert np.array_equal(loaded.inclusive[m], expected.inclusive[m])
        assert np.array_equal(loaded.exclusive[m], expected.exclusive[m])
    assert np.array_equal(loaded.calls, expected.calls)
    assert np.array_equal(loaded.subroutines, expected.subroutines)
    return loaded


def probe_is_scattered(session, metric_id) -> bool:
    """True when MiniSQL's probe of ``metric_id`` could not slice a run
    of slots (its typed columns arrive as lists, not arrays)."""
    columns = session.connection.query_columns(
        "SELECT interval_event, inclusive FROM interval_location_profile "
        "WHERE metric = ?", (metric_id,),
    )
    return all(type(c) is list for c in columns)


THREADS = [(1, 0, 0), (0, 0, 1), (0, 0, 0), (2, 1, 3)]


class TestLocationRowLayouts:
    """``load_columnar`` assembles its arrays with numpy; whatever order
    and layout the location rows are stored in, it must equal the
    whole-table JOIN's reading of them."""

    @pytest.fixture
    def experiment(self, session):
        app = session.create_application("layouts")
        return session.create_experiment(app, "x")

    def test_interleaved_metrics(self, session, experiment):
        trial_id, metric_ids, _ = store_trial(
            session, experiment, "interleaved", ["TIME", "PAPI_FP_OPS"],
            ["main", "work"], cell_rows(THREADS, metrics=[0, 1]),
        )
        assert_loads_like_reference(session, trial_id)
        if session.connection.backend == "minisql":
            assert probe_is_scattered(session, metric_ids[0])

    def test_deleted_trial_in_between(self, session, experiment):
        first = cell_rows(THREADS[:2], metrics=[0])
        second = cell_rows(THREADS[2:], metrics=[0], start=1000.0)
        trial_id, metric_ids, event_ids = store_trial(
            session, experiment, "split", ["TIME"], ["main", "work"], first,
        )
        doomed, _, _ = store_trial(
            session, experiment, "doomed", ["TIME"], ["main", "work"],
            cell_rows(THREADS, metrics=[0]),
        )
        conn = session.connection
        insert_rows(conn, second, event_ids, metric_ids)
        conn.execute(
            "DELETE FROM interval_location_profile WHERE metric IN "
            "(SELECT id FROM metric WHERE trial = ?)", (doomed,),
        )
        conn.commit()
        loaded = assert_loads_like_reference(session, trial_id)
        assert [tuple(t) for t in loaded.thread_triples.tolist()] == THREADS
        if conn.backend == "minisql":
            assert probe_is_scattered(session, metric_ids[0])

    def test_thread_first_seen_in_a_later_metric(self, session, experiment):
        """Thread (5, 0, 0) has no TIME rows and leads PAPI_FP_OPS's: it
        is numbered after every thread TIME has, as the JOIN meets it."""
        late = (5, 0, 0)
        rows = cell_rows(THREADS[:3], metrics=[0])
        rows += cell_rows([late] + THREADS[:3], metrics=[1], start=500.0)
        trial_id, _, _ = store_trial(
            session, experiment, "late", ["TIME", "PAPI_FP_OPS"],
            ["main", "work"], rows,
        )
        loaded = assert_loads_like_reference(session, trial_id)
        assert [tuple(t) for t in loaded.thread_triples.tolist()] == (
            THREADS[:3] + [late]
        )
        assert loaded.inclusive[0][3].tolist() == [0.0, 0.0]
        assert loaded.inclusive[1][3].tolist() == [500.5 + 1, 510.5 + 1]

    def test_event_major_rows(self, session, experiment):
        """Rows stored event by event, each event meeting the threads in
        another order: a thread's rows are not adjacent, and the rows
        that show the threads first are not the first rows."""
        orders = [[2, 0, 3, 1], [1, 3, 0, 2], [3, 2, 1, 0]]
        by_thread = cell_rows(THREADS, metrics=[0, 1], events=3)
        rows = [
            row
            for e, order in enumerate(orders)
            for t in order
            for row in by_thread if row[0] == e and row[1] == THREADS[t]
        ]
        trial_id, _, _ = store_trial(
            session, experiment, "event-major", ["TIME", "PAPI_FP_OPS"],
            ["main", "work", "io"], rows,
        )
        loaded = assert_loads_like_reference(session, trial_id)
        assert [tuple(t) for t in loaded.thread_triples.tolist()] == [
            THREADS[t] for t in orders[0]
        ]

    def test_negative_node_context_and_thread_numbers(self, session, experiment):
        threads = [(0, -1, 2), (-3, 0, 0), (2, 1, -5), (-3, -1, -5), (0, 0, 0)]
        trial_id, _, _ = store_trial(
            session, experiment, "negative", ["TIME"], ["main", "work"],
            cell_rows(threads, metrics=[0]),
        )
        loaded = assert_loads_like_reference(session, trial_id)
        assert [tuple(t) for t in loaded.thread_triples.tolist()] == threads

    def test_triples_too_wide_for_one_key(self, session, experiment):
        """Spans of node, context and thread whose product passes int64
        (one shared key would make (4, 0, 0) collide with (0, 0, 0)):
        threads are numbered by comparing the triples themselves."""
        wide = [(0, 0, 0), (4, 0, 0), (0, 2**31 - 1, 0), (0, 0, 2**31 - 1)]
        trial_id, _, _ = store_trial(
            session, experiment, "wide", ["TIME"], ["main", "work"],
            cell_rows(wide, metrics=[0]),
        )
        loaded = assert_loads_like_reference(session, trial_id)
        assert [tuple(t) for t in loaded.thread_triples.tolist()] == wide

    def test_node_beyond_int32_is_refused_not_wrapped(self, session, experiment):
        trial_id, _, _ = store_trial(
            session, experiment, "huge", ["TIME"], ["main"],
            cell_rows([(2**31, 0, 0)], metrics=[0], events=1),
        )
        with pytest.raises(OverflowError):
            session.load_columnar(trial_id)

    def test_stored_nulls_load_as_nan(self, session, experiment):
        rows = cell_rows(THREADS[:2], metrics=[0])
        rows[1] = rows[1][:3] + (None, None) + rows[1][5:]
        trial_id, _, _ = store_trial(
            session, experiment, "nulls", ["TIME"], ["main", "work"], rows,
        )
        loaded = session.load_columnar(trial_id)
        assert np.isnan(loaded.inclusive[0][0, 1])
        assert np.isnan(loaded.exclusive[0][0, 1])
        assert loaded.inclusive[0][0, 0] == 0.5
        assert loaded.inclusive[0][1].tolist() == [100.5, 110.5]

    def test_no_location_rows_loads_no_threads(self, session, experiment):
        trial_id, _, _ = store_trial(
            session, experiment, "bare", ["TIME"], ["main"], [],
        )
        loaded = session.load_columnar(trial_id)
        assert loaded.num_threads == 0
        assert loaded.inclusive[0].shape == (0, 1)

    def test_row_of_a_foreign_event_raises(self, session, experiment):
        trial_id, metric_ids, _ = store_trial(
            session, experiment, "own", ["TIME"], ["main", "work"],
            cell_rows(THREADS[:1], metrics=[0]),
        )
        _, _, (foreign,) = store_trial(
            session, experiment, "other", ["TIME"], ["elsewhere"], [],
        )
        insert_rows(
            session.connection, [(0, (9, 0, 0), 0, 1.0, 1.0, 1.0, 0.0)],
            [foreign], metric_ids,
        )
        with pytest.raises(KeyError, match=str(foreign)):
            session.load_columnar(trial_id)

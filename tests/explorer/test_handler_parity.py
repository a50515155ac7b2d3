"""Analysis handler replies are unchanged by the per-trial columnar read.

Every trial-reading ``AnalysisServer`` handler loads its trial with
``load_columnar`` (one indexed probe per metric).  Each reply must be
byte-for-byte what the handler answered when it materialised the trial
with ``load_datasource``: the expected values below run the same chart,
toolkit and clustering functions over ``load_datasource``.  Comparing
``encode_message`` bytes makes NaN replies compare equal.  Both engines
run every case (``db_url`` fixture).  Trial rows with no stored profile
data keep their old replies and errors too.
"""

from __future__ import annotations

import pytest

from repro.core.api.entities import Trial
from repro.explorer import AnalysisServer
from repro.explorer.charts import (
    correlation_matrix, group_fraction_chart, imbalance_chart, speedup_chart,
)
from repro.explorer.clustering import (
    cluster_trial, hierarchical_cluster, summarize_clusters,
)
from repro.explorer.protocol import encode_message
from repro.core.toolkit.stats import event_values
from repro.tau.apps import EVH1, SPPM
from tests.core.test_load_columnar import scrambled_source


def _metric_index(source, trial, metric_name, strict=False):
    if metric_name is None:
        return 0
    names = [m.name for m in source.metrics]
    if strict and metric_name not in names:
        raise ValueError(f"trial {trial} has no metric {metric_name!r}")
    return names.index(metric_name)


def _legacy_cluster(server, trial, k=None, metric_name=None, max_k=6,
                    seed=0, save=False, method="kmeans"):
    source = server.session.load_datasource(trial)
    metric = _metric_index(source, trial, metric_name, strict=True)
    if method == "kmeans":
        result = cluster_trial(source, k=k, metric=metric, max_k=max_k, seed=seed)
    else:
        result = hierarchical_cluster(source, k=k, metric=metric)
    return {
        "k": result.k, "sizes": result.sizes, "silhouette": result.silhouette,
        "labels": result.labels.tolist(), "summary": summarize_clusters(result),
        "settings_id": None,
    }


def _legacy_describe(server, trial, event, metric_name=None):
    source = server.session.load_datasource(trial)
    metric = _metric_index(source, trial, metric_name)
    return server.backend.describe(event_values(source, event, metric))


def _legacy_correlate(server, trial, event_x, event_y):
    source = server.session.load_datasource(trial)
    return server.backend.correlate(
        event_values(source, event_x), event_values(source, event_y)
    )


def _legacy_experiment(server, experiment):
    return [
        (t.get("node_count") or 1, server.session.load_datasource(t))
        for t in server.session.get_trial_list(experiment)
    ]


#: method -> the reply computed the way the handler did over DataSources.
LEGACY = {
    "cluster_trial": _legacy_cluster,
    "describe_event": _legacy_describe,
    "correlate_events": _legacy_correlate,
    "correlation_matrix": lambda server, trial, events=None: correlation_matrix(
        server.session.load_datasource(trial), events
    ),
    "imbalance_chart": lambda server, trial, top=10: imbalance_chart(
        server.session.load_datasource(trial), top=top
    ),
    "speedup_chart": lambda server, experiment, events=None: speedup_chart(
        _legacy_experiment(server, experiment), events
    ),
    "group_fraction_chart": lambda server, experiment: group_fraction_chart(
        _legacy_experiment(server, experiment)
    ),
}


def _empty_trial(session, experiment, name, metric=None):
    """A trial row with no events or location rows (and one metric row
    when ``metric`` is given)."""
    trial = Trial(session.connection, name=name, experiment=experiment.id)
    trial.save()
    if metric is not None:
        session.connection.execute(
            "INSERT INTO metric (trial, name, derived) VALUES (?, ?, 0)",
            (trial.id, metric),
        )
        session.connection.commit()
    return trial.id


class Archive:
    """Three drill-down trials plus a three-size scaling experiment, and
    trials without profile data in the drill and a ragged experiment."""

    def __init__(self, url: str):
        self.server = AnalysisServer(url)
        session = self.server.session
        self.app = session.create_application("parity")
        drill = session.create_experiment(self.app, "drill")
        self.scaling = session.create_experiment(self.app, "scaling")
        self.trials = {
            "sppm": session.save_trial(
                SPPM(problem_size=0.01, timesteps=1).run(8), drill, "sppm"
            ).id,
            "evh1": session.save_trial(
                EVH1(problem_size=0.05, timesteps=1).run(4), drill, "evh1"
            ).id,
            "scrambled": session.save_trial(scrambled_source(), drill, "scr").id,
        }
        for ranks in (2, 4, 8):
            session.save_trial(
                EVH1(problem_size=0.05, timesteps=1).run(ranks),
                self.scaling, f"p{ranks}",
            )
        self.drill = drill
        self.empty = [
            _empty_trial(session, drill, "bare"),
            _empty_trial(session, drill, "metric-only", metric="TIME"),
        ]
        # A bare trial makes every speedup_chart of its experiment fail,
        # so it gets its own beside an ordinary trial; scaling stays whole.
        self.ragged = session.create_experiment(self.app, "ragged")
        session.save_trial(
            EVH1(problem_size=0.05, timesteps=1).run(2), self.ragged, "p2"
        )
        _empty_trial(session, self.ragged, "bare")

    def events(self, name: str) -> list[str]:
        return [
            e["name"]
            for e in self.server.session.get_interval_events(self.trials[name])
        ]

    def cases(self) -> list[tuple[str, dict]]:
        out: list[tuple[str, dict]] = []
        for name, trial in self.trials.items():
            events = self.events(name)
            out += [
                ("imbalance_chart", {"trial": trial}),
                ("imbalance_chart", {"trial": trial, "top": 3}),
                ("describe_event", {"trial": trial, "event": events[0]}),
                ("describe_event", {"trial": trial, "event": events[-1]}),
                ("correlate_events",
                 {"trial": trial, "event_x": events[0], "event_y": events[1]}),
                ("correlation_matrix", {"trial": trial}),
                ("correlation_matrix", {"trial": trial, "events": events[:3]}),
                ("cluster_trial", {"trial": trial, "k": 2, "save": False}),
            ]
        sppm, scrambled = self.trials["sppm"], self.trials["scrambled"]
        out += [
            ("describe_event", {"trial": sppm, "event": self.events("sppm")[1],
                                "metric_name": "PAPI_FP_OPS"}),
            ("describe_event", {"trial": scrambled, "event": "late",
                                "metric_name": "PAPI_FP_OPS"}),
            ("cluster_trial", {"trial": sppm, "metric_name": "PAPI_FP_OPS",
                               "save": False}),
            ("cluster_trial", {"trial": scrambled, "k": 2, "save": False,
                               "method": "hierarchical"}),
            ("speedup_chart", {"experiment": self.scaling.id}),
            ("speedup_chart", {"experiment": self.scaling.id,
                               "events": self.events("evh1")[:2]}),
            ("group_fraction_chart", {"experiment": self.scaling.id}),
            ("group_fraction_chart", {"experiment": self.drill.id}),
        ]
        return out

    def empty_cases(self) -> list[tuple[str, dict]]:
        """Calls on, or over, trials with no stored profile data."""
        out: list[tuple[str, dict]] = []
        for trial in self.empty:
            out += [
                ("imbalance_chart", {"trial": trial}),
                ("describe_event", {"trial": trial, "event": "main"}),
                ("describe_event", {"trial": trial, "event": "main",
                                    "metric_name": "TIME"}),
                ("correlate_events",
                 {"trial": trial, "event_x": "main", "event_y": "main"}),
                ("correlation_matrix", {"trial": trial}),
                ("correlation_matrix", {"trial": trial, "events": ["main"]}),
                ("cluster_trial", {"trial": trial, "k": 2, "save": False}),
                ("cluster_trial", {"trial": trial, "metric_name": "TIME",
                                   "save": False}),
            ]
        out += [
            ("speedup_chart", {"experiment": self.ragged.id}),
            ("group_fraction_chart", {"experiment": self.ragged.id}),
        ]
        return out


@pytest.fixture
def archive(db_url):
    built = Archive(db_url)
    yield built
    built.server.session.close()


#: Means over the no-thread arrays of trials without profile data warn,
#: on the DataSource path as on the columnar one.
_EMPTY_MEANS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _outcome(call):
    try:
        return ("ok", encode_message({"result": call()}))
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


class TestRepliesUnchanged:
    def test_every_trial_reading_handler(self, archive):
        server = archive.server
        cases = archive.cases()
        assert {method for method, _ in cases} == set(LEGACY)
        for method, params in cases:
            reply = _outcome(lambda: server.handle_request(method, dict(params)))
            expected = _outcome(lambda: LEGACY[method](server, **params))
            assert expected[0] == "ok", (method, params, expected)
            assert reply == expected, (method, params)

    @_EMPTY_MEANS
    def test_trials_without_profile_data(self, archive):
        server = archive.server
        replies = {}
        for method, params in archive.empty_cases():
            reply = _outcome(lambda: server.handle_request(method, dict(params)))
            expected = _outcome(lambda: LEGACY[method](server, **params))
            assert reply == expected, (method, params)
            replies[method, params.get("trial")] = reply
        for trial in archive.empty:
            assert replies["imbalance_chart", trial] == (
                "ok", encode_message({"result": {"events": []}})
            )
        assert replies["group_fraction_chart", None][0] == "ok"

    @pytest.mark.parametrize("method, params", [
        ("cluster_trial", {}),
        ("describe_event", {"event": "main"}),
        ("correlate_events", {"event_x": "main", "event_y": "main"}),
        ("correlation_matrix", {}),
        ("imbalance_chart", {}),
    ])
    def test_unknown_trial_error_unchanged(self, archive, method, params):
        params = dict(params, trial=999)
        reply = _outcome(lambda: archive.server.handle_request(method, dict(params)))
        expected = _outcome(lambda: LEGACY[method](archive.server, **params))
        assert expected == ("error", "LookupError", "no trial id 999 in this database")
        assert reply == expected

    @pytest.mark.parametrize("method, params", [
        ("describe_event", {"event": "nosuch"}),
        ("correlate_events", {"event_x": "nosuch", "event_y": "late"}),
        ("correlation_matrix", {"events": ["late", "nosuch"]}),
    ])
    def test_unknown_event_error_unchanged(self, archive, method, params):
        params = dict(params, trial=archive.trials["scrambled"])
        reply = _outcome(lambda: archive.server.handle_request(method, dict(params)))
        expected = _outcome(lambda: LEGACY[method](archive.server, **params))
        assert expected == ("error", "KeyError", "'no such interval event: nosuch'")
        assert reply == expected

    @_EMPTY_MEANS
    def test_no_full_scans_per_call(self, archive):
        connection = archive.server.session.connection
        if connection.dialect.name != "minisql":
            pytest.skip("access-path counters are MiniSQL's")
        for method, params in archive.cases():
            before = connection.stats()
            archive.server.handle_request(method, dict(params))
            after = connection.stats()
            assert after["full_scans"] == before["full_scans"], (method, params)
            assert after["vector_selects"] > before["vector_selects"], method
        for method, params in archive.empty_cases():
            before = connection.stats()
            _outcome(lambda: archive.server.handle_request(method, dict(params)))
            after = connection.stats()
            assert after["full_scans"] == before["full_scans"], (method, params)


class TestSharedSelection:
    """Handlers share one session across executor threads, so none may
    set or reset its selection (a concurrent ``list_trials`` would then
    see another request's filter, or none)."""

    @_EMPTY_MEANS
    def test_handlers_never_touch_the_selection(self, archive, monkeypatch):
        server = archive.server

        class SelectionTouched(Exception):
            pass

        def refuse(*_args, **_kwargs):
            raise SelectionTouched("handler changed the shared selection")

        for name in ("set_application", "set_experiment", "reset_selection"):
            monkeypatch.setattr(server.session, name, refuse)
        experiments = server.handle_request(
            "list_experiments", {"application": archive.app.id}
        )
        assert [e["name"] for e in experiments] == ["drill", "scaling", "ragged"]
        trials = server.handle_request(
            "list_trials", {"experiment": archive.scaling.id}
        )
        assert [t["name"] for t in trials] == ["p2", "p4", "p8"]
        for method, params in archive.cases():
            server.handle_request(method, dict(params))
        for method, params in archive.empty_cases():
            reply = _outcome(lambda: server.handle_request(method, dict(params)))
            assert reply[:2] != ("error", "SelectionTouched"), (method, params)

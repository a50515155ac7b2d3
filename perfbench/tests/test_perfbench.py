"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

A tiny-size run of every workload must print every metric BENCHMARK.json
names, with its unit; the oracle must reject a reply with one number
perturbed; the runner must refuse a tail percentile that fewer than ten
samples lie beyond.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import data  # noqa: E402
import oracle  # noqa: E402
from common import BenchmarkError, check_program_argv, samples_beyond, tail_percentile  # noqa: E402
from reduce import Trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


# -- the oracle ---------------------------------------------------------------

@pytest.fixture(scope="module")
def served_replies():
    """Real replies: the program's own handlers on a generated trial."""
    from repro.explorer.server import AnalysisServer

    server = AnalysisServer("minisql://:memory:")
    p = data.profile(3, data.SERVED, 0, 32)
    ids, _ = data.save_profiles(server.session, [("a", "e", "t", p)])
    trial = ids["t"]
    answers = oracle.TrialAnswers(p)
    chart = server.handle_request("imbalance_chart", {"trial": trial, "top": 10})
    worst = [row["event"] for row in chart["events"]]
    replies = {
        "imbalance": chart,
        "describe": server.handle_request("describe_event", {"trial": trial, "event": worst[0]}),
        "correlate": server.handle_request(
            "correlate_events", {"trial": trial, "event_x": worst[0], "event_y": worst[1]}),
        "matrix": server.handle_request(
            "correlation_matrix", {"trial": trial, "events": worst[:4]}),
    }
    return answers, replies


def _perturbed(reply, path, factor=1.0 + 1e-6):
    out = copy.deepcopy(reply)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * factor
    return out


CHECKS = {
    "imbalance": ("check_imbalance", [("events", 0, "imbalance"), ("events", 9, "mean")]),
    "describe": ("check_describe", [("stddev",), ("kurtosis",), ("median",)]),
    "correlate": ("check_correlate", [("pearson_r",), ("spearman_p",)]),
    "matrix": ("check_matrix", [("matrix", 0, 1)]),
}


@pytest.mark.parametrize("kind", sorted(CHECKS))
def test_oracle_accepts_the_program_and_rejects_a_perturbed_reply(served_replies, kind):
    answers, replies = served_replies
    method, paths = CHECKS[kind]
    getattr(answers, method)(replies[kind])
    for path in paths:
        factor = 1.001 if kind == "matrix" else 1.0 + 1e-6
        with pytest.raises(oracle.Mismatch):
            getattr(answers, method)(_perturbed(replies[kind], path, factor))


def test_oracle_rejects_a_reordered_imbalance_chart(served_replies):
    answers, replies = served_replies
    chart = copy.deepcopy(replies["imbalance"])
    chart["events"][0], chart["events"][1] = chart["events"][1], chart["events"][0]
    with pytest.raises(oracle.Mismatch):
        answers.check_imbalance(chart)


def test_oracle_rejects_a_wrong_catalog_or_import_or_listing():
    catalog = oracle.Catalog(data.catalog(32, 256))
    good = [{"id": 1, "name": "run-00", "node_count": 32},
            {"id": 5, "name": "run-big", "node_count": 256}]
    catalog.check_trials("miranda-0", "bgl-0-0", good)
    every_trial = good + [{"id": i, "name": f"run-{i - 1:02d}", "node_count": 32} for i in (2, 3, 4)]
    with pytest.raises(oracle.Mismatch):  # what the shared-selection race returns
        catalog.check_trials("miranda-0", "bgl-0-0", every_trial)
    with pytest.raises(oracle.Mismatch):
        catalog.check_trials("miranda-0", "bgl-0-0", [dict(good[0], node_count=16), good[1]])
    p = data.profile(1, data.IMPORTS, 0, 4)
    oracle.check_import("t", p.rows, float(p.exclusive.sum()), p)
    with pytest.raises(oracle.Mismatch):
        oracle.check_import("t", p.rows, float(p.exclusive.sum()) * (1 + 1e-7), p)
    with pytest.raises(oracle.Mismatch):
        oracle.check_import("t", p.rows - 1, float(p.exclusive.sum()), p)
    listing = "tree\n\ntrial ids:\n     1  miranda/bgl/run-00\n     2  miranda/bgl/run-01\n"
    oracle.check_listing(listing, ["run-00", "run-01"])
    with pytest.raises(oracle.Mismatch):
        oracle.check_listing(listing, ["run-00"])


# -- runner guards -------------------------------------------------------------

def test_runner_refuses_a_percentile_without_ten_samples_beyond():
    with pytest.raises(BenchmarkError):
        tail_percentile([float(x) for x in range(50)], 0.9)  # 5 beyond p90
    value, beyond = tail_percentile([float(x) for x in range(200)], 0.9)
    assert beyond >= 10 and value == pytest.approx(179.1)
    assert samples_beyond([float(x) for x in range(50)], 0.9) == 5


def test_runner_refuses_program_options_beyond_the_database_url():
    check_program_argv(["list", "--db", "minisql:///x.mdb"])
    for option in ("--core", "--shards", "--replica-of", "--max-in-flight"):
        with pytest.raises(BenchmarkError):
            check_program_argv(["serve", "--db", "minisql:///x.mdb", option, "1"])


def test_reducer_self_time_subtracts_direct_children():
    spans = [
        {"name": "session.load_datasource", "span_id": "a", "parent_id": None, "duration": 0.010},
        {"name": "db.query", "span_id": "b", "parent_id": "a", "duration": 0.004},
        {"name": "db.execute", "span_id": "c", "parent_id": "b", "duration": 0.003},
        {"name": "db.query", "span_id": "d", "parent_id": "a", "duration": 0.002},
    ]
    trace = Trace(spans)
    assert trace.self_ms(spans[0]) == pytest.approx(4.0)
    assert [s["span_id"] for s in trace.top_level(("db.",))] == ["b", "d"]


def test_generated_inputs_depend_only_on_the_seed():
    a, b = data.profile(5, data.IMPORTS, 2, 8), data.profile(5, data.IMPORTS, 2, 8)
    assert np.array_equal(a.exclusive, b.exclusive)
    assert not np.array_equal(a.exclusive, data.profile(6, data.IMPORTS, 2, 8).exclusive)

"""A hash probe that already applied WHERE skips the vector re-check.

When every WHERE conjunct is ``col = constant`` on a column of the
probed hash index, the column holds only numbers and the constant is a
non-NaN number equal to the key, the probe returned exactly the rows
WHERE accepts, so the vector plan does not test them again.  Each
such probe counts one ``probe_where_discharged``.  Anything else keeps
the full re-check and answers as a scan of the same rows does.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.core.session import PerfDMFSession
from repro.db.minisql import reset_shared_databases
from repro.tau.apps import SPPM
from tests.db import modes

DISCHARGED = "probe_where_discharged"


def charged(conn, sql, params=()):
    """The rows of ``sql`` and the discharged probes it counted."""
    before = conn.stats()[DISCHARGED]
    rows = conn.execute(sql, params).fetchall()
    return rows, conn.stats()[DISCHARGED] - before


class TestAnalysisRead:
    def test_load_columnar_discharges_every_probe(self):
        """One probe per metric, plus the metric and event reads: the
        fast path of PerfExplorer's trial read must not vanish."""
        session = PerfDMFSession("minisql://:memory:")
        experiment = session.create_experiment(
            session.create_application("s"), "x"
        )
        trial = session.save_trial(
            SPPM(problem_size=0.01, timesteps=1).run(8), experiment, "t"
        )
        conn = session.connection
        before = conn.stats()
        loaded = session.load_columnar(trial)
        after = conn.stats()
        delta = {k: after[k] - before[k] for k in
                 (DISCHARGED, "index_eq_probes", "vector_fallbacks")}
        assert loaded.num_metrics == 8
        assert delta[DISCHARGED] >= loaded.num_metrics
        assert delta[DISCHARGED] == delta["index_eq_probes"]
        assert delta["vector_fallbacks"] == 0
        session.close()

    def test_perfdmf_stats_shows_the_counter(self, capsys):
        url = "minisql://discharge-stats"
        try:
            session = PerfDMFSession(url)
            experiment = session.create_experiment(
                session.create_application("s"), "x"
            )
            trial = session.save_trial(
                SPPM(problem_size=0.01, timesteps=1).run(2), experiment, "t"
            )
            session.load_columnar(trial)
            capsys.readouterr()
            assert main(["stats", "--db", url, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["metrics"][f"db.{DISCHARGED}"]["value"] >= 8
        finally:
            reset_shared_databases()


@pytest.fixture
def tables():
    """A columnar table ``p`` with a hash index on ``k`` and a btree on
    ``r``, and ``s``, the same rows with no index (its answers are the
    scan's)."""
    conn = modes.connect("columnar")
    for name, indexed in (("p", True), ("s", False)):
        conn.execute(
            f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, k INTEGER, "
            "r REAL, v REAL)"
        )
        if indexed:
            conn.execute("CREATE INDEX idx_p_k ON p (k)")
            conn.execute("CREATE INDEX idx_p_r ON p (r) USING BTREE")
        conn.executemany(
            f"INSERT INTO {name} (id, k, r, v) VALUES (?, ?, ?, ?)",
            [(i, i % 3, float(i % 4), i - 4.5) for i in range(1, 13)]
            + [(13, 1, math.nan, 1.0), (14, 1, math.nan, -1.0)],
        )
    conn.commit()
    yield conn
    conn.close()


def same_as_scan(conn, where, params=()):
    """``where`` over ``p`` (indexed) and ``s`` (scanned) gives the same
    rows; returns them with the probes ``p`` discharged."""
    rows, discharged = charged(conn, f"SELECT id, v FROM p WHERE {where}", params)
    scanned = conn.execute(f"SELECT id, v FROM s WHERE {where}", params).fetchall()
    assert sorted(rows) == sorted(scanned), where
    return rows, discharged


class TestDischarge:
    @pytest.mark.parametrize("where, params", [
        ("k = 2", ()), ("k = ?", (2,)), ("2 = k", ()), ("k = 2.0", ()),
        ("k = 2 AND k = 2", ()),
    ])
    def test_numeric_key_on_a_pure_column(self, tables, where, params):
        rows, discharged = same_as_scan(tables, where, params)
        assert [r[0] for r in rows] == [2, 5, 8, 11]
        assert discharged == 1

    def test_nan_key_keeps_the_recheck(self, tables):
        """The hash map finds a stored ``math.nan`` by identity; NaN
        equals nothing, so the re-check must drop those rows."""
        tables.execute("DROP INDEX idx_p_r")
        tables.execute("CREATE INDEX idx_p_r ON p (r)")
        assert same_as_scan(tables, "r = ?", (math.nan,)) == ([], 0)

    def test_escape_hatch_value_keeps_the_recheck(self, tables):
        for name in ("p", "s"):
            tables.execute(f"UPDATE {name} SET k = 2.5 WHERE id = 3")
        tables.commit()
        rows, discharged = same_as_scan(tables, "k = 2")
        assert [r[0] for r in rows] == [2, 5, 8, 11]
        assert discharged == 0

    @pytest.mark.parametrize("where, params", [
        ("k = '2'", ()), ("k = ?", ("2",)),
    ])
    def test_text_key_keeps_the_recheck(self, tables, where, params):
        rows, discharged = same_as_scan(tables, where, params)
        assert [r[0] for r in rows] == [2, 5, 8, 11]
        assert discharged == 0

    def test_range_probe_keeps_the_recheck(self, tables):
        rows, discharged = same_as_scan(tables, "r >= 2.0")
        assert sorted(r[0] for r in rows) == [2, 3, 6, 7, 10, 11]
        assert discharged == 0

    @pytest.mark.parametrize("where", [
        "k = 1 AND v > 0", "k = 1 AND k = 2", "k = 1 AND r = 1.0",
    ])
    def test_residual_conjunct_keeps_the_recheck(self, tables, where):
        _rows, discharged = same_as_scan(tables, where)
        assert discharged == 0

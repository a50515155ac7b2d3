"""E13 — MiniSQL query compilation: compiled vs interpreted (PR 5).

The query compiler lowers bound expression trees into Python closures at
prepare time and runs scans in batches with projection pushdown.  This
benchmark replays E2's access patterns — selective node slice, the
dbsession full-scan aggregate mix, and top-N — plus a WHERE-heavy
filter sweep over one archive, twice.  The "off" baseline runs on a
connection of its own in the equivalence suites' ``interpreted`` mode
(``tests/db/modes.py``): the compiler refuses every expression, so
every section of the pipeline runs the interpreter, ``expr.evaluate``,
which is what a section the compiler cannot lower runs.  The "on" side
runs on the session's connection, where every section compiles.
Identical statement text, identical rows, only the execution path
differs.  The two connections share the database's counters, so
``compile_stats`` sums each counter's change across the compiled
side's runs only.

This baseline is somewhat slower than the separate interpreter pipeline
that ``PRAGMA compile(off)`` selected before both were deleted: an
interpreted closure binds its row context through one more call per
row.  Speedups recorded since are therefore not directly comparable
with earlier ones; ``on_ms``, the compiled side's own time, is.

Results land in ``BENCH_e13_compile.json`` at the repo root (per-pattern
off/on timings and speedup); CI's smoke job archives the file.

Ranks default to 1024 (``REPRO_FULL_SCALE=1`` -> 4096); CI overrides
with ``REPRO_E13_RANKS`` for a fast smoke run, which relaxes the
speedup assertion to a noise margin.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.core.session import PerfDMFSession
from repro.tau.apps import Miranda
from repro.tau.apps.miranda import NUM_EVENTS

from conftest import scale
from tests.db import modes

RANKS = int(os.environ.get("REPRO_E13_RANKS", "0")) or scale(1024, 4096)

#: Below this size the engine is fast either way and the ratio is noise;
#: CI smoke only checks that compilation is not a slowdown.
STRICT_RANKS = 1024

E13_JSON = Path(__file__).resolve().parent.parent / "BENCH_e13_compile.json"

ROUNDS = 3

#: Counters of ``Connection.stats()`` recorded as ``compile_stats``.
COMPILE_STATS = ("plan_cache_hits", "plan_cache_misses", "compile_fallbacks")


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _patterns(trial_id):
    """E2's access patterns plus a WHERE-heavy filter sweep."""
    mid = RANKS // 2
    return {
        # E2 node slice, written so no index applies: the row-at-a-time
        # predicate is exactly what compilation accelerates.
        "selective": (
            "SELECT interval_event, node, exclusive "
            "FROM interval_location_profile "
            "WHERE node + 0 > ? AND node + 0 <= ?",
            (mid - 4, mid),
        ),
        # dbsession.aggregate's full-scan SQL aggregate mix (E2's
        # test_full_scan_aggregate shape): scan + hash join + hash agg.
        "aggregate": (
            "SELECT avg(p.exclusive), min(p.exclusive), max(p.exclusive) "
            "FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "WHERE e.trial = ?",
            (trial_id,),
        ),
        # E2 top-N: served by the ordered-index ORDER BY pushdown, which
        # reads ~20 rows — compilation is expected to be a wash here and
        # the JSON records that honestly.
        "topn": (
            "SELECT interval_event, node, exclusive "
            "FROM interval_location_profile "
            "ORDER BY exclusive DESC LIMIT 20",
            (),
        ),
        # WHERE-heavy single-table sweep: arithmetic, modulo and CASE in
        # the predicate, evaluated for every stored row.
        "filter_sweep": (
            "SELECT count(*), avg(exclusive) "
            "FROM interval_location_profile "
            "WHERE exclusive * 2.0 + inclusive > 100.0 AND node % 2 = 0 "
            "AND (CASE WHEN num_calls > 0 THEN exclusive / num_calls "
            "ELSE 0 END) >= 0",
            (),
        ),
    }


@pytest.fixture(scope="module")
def measured():
    session = PerfDMFSession("minisql://:memory:")
    application = session.create_application("miranda")
    experiment = session.create_experiment(application, "bgl")
    trial = session.save_trial(Miranda().generate(RANKS), experiment, "e13")
    session.set_trial(trial)
    conn = session.connection
    interpreted = modes.connect("interpreted", conn._raw._database)

    results = {}
    compiled_stats = dict.fromkeys(COMPILE_STATS, 0)
    for name, (sql, params) in _patterns(trial.id).items():
        rows_off, seconds_off = _best_of(
            lambda: interpreted.execute(sql, params).fetchall()
        )
        before = conn.stats()
        rows_on, seconds_on = _best_of(lambda: conn.query(sql, params))
        after = conn.stats()
        for key in COMPILE_STATS:
            compiled_stats[key] += after[key] - before[key]
        results[name] = {
            "rows_off": rows_off,
            "rows_on": rows_on,
            "off_ms": seconds_off * 1e3,
            "on_ms": seconds_on * 1e3,
            "speedup": seconds_off / seconds_on,
        }
    results["_stats"] = compiled_stats
    yield results
    interpreted.close()
    session.close()


@pytest.mark.parametrize(
    "pattern", ["selective", "aggregate", "topn", "filter_sweep"]
)
def test_rows_identical_both_modes(measured, pattern):
    """Compilation must be an invisible optimisation at bench scale."""
    entry = measured[pattern]
    assert entry["rows_off"] == entry["rows_on"]


def test_aggregate_speedup(measured, report):
    """ISSUE acceptance: >=2.5x on E2's full-scan SQL aggregate mix."""
    entry = measured["aggregate"]
    report(
        f"E13 compiled full-scan aggregate mix       -> "
        f"{entry['speedup']:6.2f}x ({entry['off_ms']:.0f} ms -> "
        f"{entry['on_ms']:.0f} ms, {RANKS * NUM_EVENTS:,} rows)"
    )
    if RANKS >= STRICT_RANKS:
        assert entry["speedup"] >= 2.5, (
            f"compiled aggregate must beat the interpreter 2.5x, "
            f"got {entry['speedup']:.2f}x"
        )
    else:
        assert entry["speedup"] >= 0.9, (
            f"compilation must not be a slowdown even at smoke scale, "
            f"got {entry['speedup']:.2f}x"
        )


def test_filter_sweep_speedup(measured, report):
    entry = measured["filter_sweep"]
    report(
        f"E13 compiled WHERE-heavy filter sweep      -> "
        f"{entry['speedup']:6.2f}x ({entry['off_ms']:.0f} ms -> "
        f"{entry['on_ms']:.0f} ms)"
    )
    floor = 2.0 if RANKS >= STRICT_RANKS else 0.9
    assert entry["speedup"] >= floor


def test_selective_speedup(measured, report):
    entry = measured["selective"]
    report(
        f"E13 compiled selective node slice          -> "
        f"{entry['speedup']:6.2f}x ({entry['off_ms']:.0f} ms -> "
        f"{entry['on_ms']:.0f} ms)"
    )
    floor = 2.0 if RANKS >= STRICT_RANKS else 0.9
    assert entry["speedup"] >= floor


def test_plan_cache_exercised(measured):
    stats = measured["_stats"]
    assert stats["plan_cache_misses"] >= 4  # one compile per pattern
    assert stats["plan_cache_hits"] >= 4 * (ROUNDS - 1)  # reruns hit


def test_write_bench_json(measured, report):
    payload = {
        "ranks": RANKS,
        "rows": RANKS * NUM_EVENTS,
        "rounds": ROUNDS,
        "patterns": {
            name: {
                "off_ms": round(entry["off_ms"], 3),
                "on_ms": round(entry["on_ms"], 3),
                "speedup": round(entry["speedup"], 3),
            }
            for name, entry in measured.items()
            if not name.startswith("_")
        },
        "compile_stats": measured["_stats"],
    }
    from repro.obs.bench import write_bench_json

    write_bench_json(E13_JSON, "e13_compile", payload)
    topn = measured["topn"]
    report(
        f"E13 top-20 (index pushdown, compile moot)  -> "
        f"{topn['speedup']:6.2f}x ({topn['off_ms']:.2f} ms -> "
        f"{topn['on_ms']:.2f} ms)"
    )

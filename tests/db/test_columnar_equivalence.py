"""Three-way differential harness: interpreted vs compiled vs columnar.

The vectorized executor ships results only when a whole SELECT completes
cleanly over the column vectors; anything else falls back to the row
pipeline.  That "atomic or fallback" contract is what this suite pins
down: for the full conformance corpus and for statements that *error*
mid-execution, all three MiniSQL execution modes must produce identical
results, identical error classes and messages, and raise at the same
point in the statement lifecycle (execute vs fetch).
"""

from __future__ import annotations

import math

import pytest

from repro.db import minisql
from tests.db.modes import MODES, connect as _connect
from tests.test_differential_sql import CORPUS, PROBE_CORPUS, Err, _normalise


def _outcome(conn, sql, params):
    """One statement's observable behaviour, as a comparable value.

    Captures *when* an error surfaces (execute vs fetch), its class, and
    its message — not just the result rows — so a vectorized path that
    produced the right rows but raised early (or swallowed an error)
    still counts as a divergence.
    """
    try:
        cursor = conn.execute(sql, params)
    except Exception as exc:
        conn.rollback()
        return ("error@execute", type(exc).__name__, str(exc))
    if sql.lstrip().upper().startswith("SELECT"):
        try:
            rows = cursor.fetchall()
        except Exception as exc:
            conn.rollback()
            return ("error@fetch", type(exc).__name__, str(exc))
        return ("rows", _normalise(rows))
    conn.commit()
    return ("ok", cursor.rowcount)


@pytest.fixture
def trio():
    conns = {mode: _connect(mode) for mode in MODES}
    yield conns
    for conn in conns.values():
        conn.close()


class TestCorpusThreeWay:
    def test_corpus_no_divergence(self, trio):
        """Replay the full conformance corpus through all three modes."""
        for position, entry in enumerate(CORPUS):
            if isinstance(entry, Err):
                sql, params = entry.sql, entry.params
            else:
                sql, params = entry
            outcomes = {
                mode: _outcome(conn, sql, params)
                for mode, conn in trio.items()
            }
            distinct = set(map(repr, outcomes.values()))
            assert len(distinct) == 1, (
                f"statement #{position} diverged: {sql!r}\n"
                + "\n".join(f"  {m}: {o!r}" for m, o in outcomes.items())
            )
        # The corpus's expected-error entries must have raised (not been
        # silently skipped) — otherwise agreement is vacuous.
        errs = [e for e in CORPUS if isinstance(e, Err)]
        assert errs

    def test_final_state_identical(self, trio):
        for entry in CORPUS:
            if isinstance(entry, Err):
                sql, params = entry.sql, entry.params
            else:
                sql, params = entry
            for conn in trio.values():
                _outcome(conn, sql, params)
        states = {}
        for mode, conn in trio.items():
            tables = sorted(
                r[0] for r in conn.execute("PRAGMA table_list").fetchall()
            )
            states[mode] = {
                t: _normalise(
                    conn.execute(f"SELECT * FROM {t}").fetchall()
                )
                for t in tables
            }
            # Order-insensitive comparison: sort by repr so NULLs and
            # mixed types don't break tuple ordering.
            for t in states[mode]:
                states[mode][t] = sorted(states[mode][t], key=repr)
        assert states["interpreted"] == states["compiled"] == states["columnar"]

    def test_columnar_mode_actually_vectorizes(self, trio):
        """Guard against a vacuous pass: the columnar connection must
        have run real vectorized selects over the corpus."""
        for entry in CORPUS:
            if isinstance(entry, Err):
                continue
            sql, params = entry
            for conn in trio.values():
                _outcome(conn, sql, params)
        stats = trio["columnar"].stats()
        assert stats["vector_selects"] > 0
        assert trio["interpreted"].stats()["vector_selects"] == 0
        assert trio["compiled"].stats()["vector_selects"] == 0


def _replay(conn) -> dict[str, dict[str, int]]:
    """Replay the corpus; per probe-section SELECT, the counter deltas."""
    keys = ("vector_selects", "index_eq_probes", "index_range_scans")
    deltas = {}
    for entry in CORPUS:
        if isinstance(entry, Err):
            _outcome(conn, entry.sql, entry.params)
            continue
        sql, params = entry
        before = conn.stats()
        _outcome(conn, sql, params)
        after = conn.stats()
        if entry in PROBE_CORPUS and sql.startswith("SELECT"):
            deltas[sql] = {k: after[k] - before[k] for k in keys}
    return deltas


class TestProbeGather:
    """The probe section of the corpus must really reach the vector plan
    over index-selected slots — agreement alone could be vacuous."""

    def test_probes_vectorize_and_ordered_walks_stream(self, trio):
        deltas = _replay(trio["columnar"])
        eq = [d for d in deltas.values() if d["index_eq_probes"]]
        ranges = [d for d in deltas.values() if d["index_range_scans"]]
        assert sum(d["vector_selects"] for d in eq) >= 5
        assert sum(d["vector_selects"] for d in ranges) >= 3
        for sql, d in deltas.items():
            if "LIMIT" in sql:
                assert d == {"vector_selects": 0, "index_eq_probes": 0,
                             "index_range_scans": 1}, sql
        for mode in ("interpreted", "compiled"):
            assert all(
                d["vector_selects"] == 0 for d in _replay(trio[mode]).values()
            )

    def test_explain_vectorized_column_matches_execution(self, trio):
        conn = trio["columnar"]
        deltas = _replay(conn)
        for sql, params in PROBE_CORPUS:
            if sql not in deltas:
                continue
            flags = [r[3] for r in conn.execute(f"EXPLAIN {sql}", params).fetchall()]
            if "LIMIT" in sql:
                assert set(flags) == {"no"}, sql
            elif deltas[sql]["vector_selects"]:
                assert flags[0] == "yes", sql

    def test_rowid_restored_by_rollback(self, trio):
        """A rolled-back DELETE puts its rowids back in new slots at the
        end of the column store, so probed rowids no longer follow slot
        order; every mode must still answer in rowid order."""
        for conn in trio.values():
            conn.execute("CREATE TABLE rb (k INTEGER, v REAL, s TEXT)")
            conn.execute("CREATE INDEX idx_rb_k ON rb (k)")
            conn.executemany(
                "INSERT INTO rb VALUES (?, ?, ?)",
                [(i % 3, float(i), None if i % 4 else f"s{i}") for i in range(12)],
            )
            conn.commit()
            conn.execute("BEGIN")
            conn.execute("DELETE FROM rb WHERE v < 5")
            conn.rollback()
        before = trio["columnar"].stats()["vector_selects"]
        for sql in (
            "SELECT v, s FROM rb WHERE k = 1",
            "SELECT sum(v), count(s) FROM rb WHERE k = 0",
            "SELECT v FROM rb WHERE k = 2 AND v > 3",
        ):
            outcomes = {m: _outcome(c, sql, ()) for m, c in trio.items()}
            assert len(set(map(repr, outcomes.values()))) == 1, (sql, outcomes)
        assert trio["columnar"].stats()["vector_selects"] == before + 3


#: ORDER BY over tied keys.  Key 1's rows are one run of slots; keys 2
#: and 3 were inserted alternately, so their slots are scattered.
ORDER_CASES = [
    "SELECT id, e FROM o WHERE k = 1 ORDER BY e",
    "SELECT id, e FROM o WHERE k = 1 ORDER BY e DESC",
    "SELECT id, r FROM o WHERE k = 1 ORDER BY e",
    "SELECT id FROM o WHERE k = 1 ORDER BY e DESC",
    "SELECT id, e FROM o WHERE k = 2 ORDER BY e",
    "SELECT id, e FROM o WHERE k = 2 ORDER BY e DESC",
    "SELECT id, r FROM o WHERE k = 1 ORDER BY r",
    "SELECT id, r FROM o WHERE k = 1 ORDER BY r DESC",
]


class TestIntegerOrderBy:
    """A vector plan sorts a NULL-free, escape-free INTEGER key by the
    values themselves, and every other key by ``sort_key`` tuples; ties
    must keep row order either way, ASC or DESC, as the row path does."""

    @pytest.fixture
    def trio(self, trio):
        for conn in trio.values():
            conn.execute(
                "CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER, "
                "e INTEGER, r REAL)"
            )
            conn.execute("CREATE INDEX idx_o_k ON o (k)")
            run = zip([3, 1, 3, 2, 1, 3, 2, 1],
                      [1.5, math.nan, 0.5, 1.5, math.nan, 0.5, 2.0, 1.5])
            conn.executemany(
                "INSERT INTO o (k, e, r) VALUES (1, ?, ?)", list(run)
            )
            conn.executemany(
                "INSERT INTO o (k, e, r) VALUES (?, ?, 0.0)",
                [(2 + i % 2, [5, 4, 5, 4, 6, 5][i // 2]) for i in range(12)],
            )
            conn.commit()
        return trio

    @staticmethod
    def assert_modes_agree(trio, sql):
        """Every mode returns the same rows; returns how many ``sort_key``
        calls the columnar mode's run made."""
        from repro.db.minisql import executor

        calls = []

        def counting(value, _sort_key=executor.sort_key):
            calls.append(value)
            return _sort_key(value)

        outcomes = {}
        for mode, conn in trio.items():
            if mode != "columnar":
                outcomes[mode] = _outcome(conn, sql, ())
                continue
            _outcome(conn, sql, ())  # plan once, outside the count
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(executor, "sort_key", counting)
                outcomes[mode] = _outcome(conn, sql, ())
        assert outcomes["interpreted"][0] == "rows", outcomes
        assert len(set(map(repr, outcomes.values()))) == 1, (sql, outcomes)
        return len(calls)

    @pytest.mark.parametrize("sql", ORDER_CASES)
    def test_tied_keys_sort_alike(self, trio, sql):
        before = trio["columnar"].stats()["vector_selects"]
        calls = self.assert_modes_agree(trio, sql)
        assert trio["columnar"].stats()["vector_selects"] == before + 2
        if "k = 1 ORDER BY e" in sql:
            assert calls == 0  # the integer run sorts without sort_key
        else:
            assert calls > 0  # scattered slots, or a REAL key

    @pytest.mark.parametrize("value", [None, 2.5])
    @pytest.mark.parametrize("key", ["e", "2", "e DESC", "2 DESC"])
    def test_null_or_escape_hatch_key(self, trio, value, key):
        """A NULL in the run, or 2.5 kept in the INTEGER column's escape
        hatch, gathers the key as a list, which sorts by ``sort_key``
        (``ORDER BY e`` over the impure column runs on the row path)."""
        for conn in trio.values():
            conn.execute("UPDATE o SET e = ? WHERE id = 4", (value,))
            conn.commit()
        sql = f"SELECT id, e FROM o WHERE k = 1 ORDER BY {key}"
        before = trio["columnar"].stats()["vector_selects"]
        assert self.assert_modes_agree(trio, sql) > 0
        vectorized = value is None or key.startswith("2")
        assert trio["columnar"].stats()["vector_selects"] == before + 2 * vectorized


#: SELECTs guaranteed to fail on the `mix` fixture table (a text value
#: in a numeric expression, an unknown function, ...).  Every mode must
#: raise the same class, same message, at the same phase.
ERROR_CASES = [
    "SELECT -x FROM mix",
    "SELECT x * 2 FROM mix",
    "SELECT x + 1 FROM mix WHERE id > 1",
    "SELECT abs(x) FROM mix",
    "SELECT sum(x) FROM mix",
    "SELECT nosuch(x) FROM mix",
    "SELECT id FROM mix WHERE x - 1 > 0",
    "SELECT id FROM mix WHERE x BETWEEN 1 AND 'oops' + 1",
    "SELECT max(id) FROM mix ORDER BY x / 'zero'",
]


class TestErrorTiming:
    @pytest.fixture
    def trio(self):
        conns = {}
        for mode in MODES:
            conn = _connect(mode)
            conn.execute("CREATE TABLE mix (id INTEGER, x)")
            conn.executemany(
                "INSERT INTO mix VALUES (?, ?)",
                [(1, 5), (2, 7), (3, "abc"), (4, 9)],
            )
            conn.commit()
            conns[mode] = conn
        yield conns
        for conn in conns.values():
            conn.close()

    @pytest.mark.parametrize("sql", ERROR_CASES)
    def test_error_class_message_and_phase_agree(self, trio, sql):
        outcomes = {
            mode: _outcome(conn, sql, ()) for mode, conn in trio.items()
        }
        reference = outcomes["interpreted"]
        assert reference[0].startswith("error@"), (
            f"expected an error case, got {reference!r}"
        )
        assert outcomes["compiled"] == reference
        assert outcomes["columnar"] == reference

    def test_failed_vector_attempt_counts_as_fallback(self, trio):
        conn = trio["columnar"]
        before = conn.stats()["vector_fallbacks"]
        with pytest.raises(minisql.MiniSQLError):
            conn.execute("SELECT -x FROM mix").fetchall()
        conn.rollback()
        assert conn.stats()["vector_fallbacks"] > before

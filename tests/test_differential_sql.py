"""Differential SQL conformance harness: sqlite vs. MiniSQL.

One corpus of DDL/DML/SELECT statements runs against both runnable
backends through :mod:`repro.db.api` — the same route PerfDMF's session
layer uses — and every SELECT must return row-for-row identical results.
This is the conformance gate for planner work: any index or access-path
change that alters *results* (not just speed) fails here.

The corpus deliberately avoids the two documented engine divergences
(integer division of non-multiples, and comparisons between numeric
strings and numbers); everything else — joins, aggregates, ORDER BY
with NULLs and DESC, LIMIT/OFFSET, compound selects, constraint
violations — is fair game.
"""

import math

import pytest

from repro.db.api import IntegrityError, connect
from tests.db import modes

# Each entry is (sql, params).  SELECTs are compared row-for-row;
# statements wrapped in Err(...) must raise IntegrityError on BOTH
# backends and leave both databases in the same state.


class Err:
    """Marks a statement expected to raise IntegrityError on both engines."""

    def __init__(self, sql, params=()):
        self.sql = sql
        self.params = params


class MiniSQLOnly(tuple):
    """A ``(sql, params)`` entry only MiniSQL runs: access-path DDL that
    sqlite cannot parse (``USING BTREE``).  An index never changes what
    a statement returns, so the sqlite side simply goes without it."""

    def __new__(cls, sql, params=()):
        return super().__new__(cls, (sql, params))


CORPUS = [
    # --- DDL -------------------------------------------------------------
    ("CREATE TABLE dept (id INTEGER PRIMARY KEY AUTOINCREMENT, "
     "name TEXT NOT NULL UNIQUE, budget REAL)", ()),
    ("CREATE TABLE emp (id INTEGER PRIMARY KEY AUTOINCREMENT, "
     "name TEXT NOT NULL, dept_id INTEGER REFERENCES dept(id), "
     "salary REAL, bonus REAL, hired TEXT, "
     "UNIQUE (name, dept_id))", ()),
    ("CREATE INDEX idx_emp_dept ON emp (dept_id)", ()),
    ("CREATE INDEX idx_emp_salary ON emp (salary)", ()),
    # --- DML -------------------------------------------------------------
    ("INSERT INTO dept (name, budget) VALUES (?, ?)", ("eng", 1000.0)),
    ("INSERT INTO dept (name, budget) VALUES (?, ?)", ("ops", 500.0)),
    ("INSERT INTO dept (name, budget) VALUES (?, ?)", ("hr", None)),
    ("INSERT INTO emp (name, dept_id, salary, bonus, hired) VALUES "
     "('ada', 1, 120.0, 10.0, '2001-01-01'), "
     "('bob', 1, 80.0, NULL, '2002-02-02'), "
     "('cyd', 2, 95.5, 5.0, '2003-03-03'), "
     "('dee', 2, 80.0, 2.5, '2004-04-04'), "
     "('eli', NULL, NULL, NULL, NULL), "
     "('fay', 3, 60.25, 1.0, '2005-05-05')", ()),
    # constraint violations must fail identically and change nothing
    Err("INSERT INTO dept (name) VALUES ('eng')"),
    Err("INSERT INTO emp (name, dept_id) VALUES ('ada', 1)"),
    Err("INSERT INTO emp (name) VALUES (NULL)"),
    Err("INSERT INTO dept (id, name) VALUES (1, 'dup-pk')"),
    ("SELECT count(*) FROM dept", ()),
    ("SELECT count(*) FROM emp", ()),
    # --- basic SELECT / WHERE -------------------------------------------
    ("SELECT id, name FROM emp ORDER BY id", ()),
    ("SELECT name FROM emp WHERE dept_id = 1 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id = ? ORDER BY name DESC", (2,)),
    ("SELECT name FROM emp WHERE salary > 80.0 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary >= 80.0 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary < 95.5 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary <= ? ORDER BY name", (95.5,)),
    ("SELECT name FROM emp WHERE salary BETWEEN 70 AND 100 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary NOT BETWEEN 70 AND 100 "
     "ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary <> 80.0 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id = 1 AND salary > 100 "
     "ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id = 1 OR salary < 70 "
     "ORDER BY name", ()),
    ("SELECT name FROM emp WHERE NOT (dept_id = 1) ORDER BY name", ()),
    ("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name", ()),
    ("SELECT name FROM emp WHERE name NOT LIKE 'a%' ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id IN (1, 3) ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id NOT IN (1, 3) ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id IN "
     "(SELECT id FROM dept WHERE budget > 600) ORDER BY name", ()),
    # --- NULL semantics --------------------------------------------------
    ("SELECT name FROM emp WHERE salary IS NULL ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY name", ()),
    ("SELECT name FROM emp WHERE bonus > 0 ORDER BY name", ()),  # NULL no-match
    ("SELECT name FROM emp WHERE bonus = bonus ORDER BY name", ()),
    ("SELECT count(*), count(salary), count(bonus) FROM emp", ()),
    ("SELECT count(*) FROM emp WHERE dept_id IS NULL OR salary > 90", ()),
    ("SELECT coalesce(bonus, -1.0) FROM emp ORDER BY id", ()),
    ("SELECT ifnull(salary, 0.0) FROM emp ORDER BY id", ()),
    ("SELECT nullif(salary, 80.0) FROM emp ORDER BY id", ()),
    # NULL ordering: first on ASC, last on DESC (sqlite semantics)
    ("SELECT name, salary FROM emp ORDER BY salary, name", ()),
    ("SELECT name, salary FROM emp ORDER BY salary DESC, name", ()),
    ("SELECT name, dept_id FROM emp ORDER BY dept_id DESC, name DESC", ()),
    # --- expressions and scalar functions -------------------------------
    ("SELECT name, salary + coalesce(bonus, 0) FROM emp "
     "WHERE salary IS NOT NULL ORDER BY name", ()),
    ("SELECT name, salary * 2.0 - 10.0 FROM emp "
     "WHERE salary IS NOT NULL ORDER BY name", ()),
    ("SELECT upper(name), lower(name), length(name) FROM emp "
     "ORDER BY id", ()),
    ("SELECT substr(name, 1, 2) FROM emp ORDER BY id", ()),
    ("SELECT name || '-' || hired FROM emp WHERE hired IS NOT NULL "
     "ORDER BY id", ()),
    ("SELECT abs(-5), round(2.567, 2), round(95.5)", ()),
    ("SELECT CASE WHEN salary > 90 THEN 'high' WHEN salary > 70 "
     "THEN 'mid' ELSE 'low' END FROM emp WHERE salary IS NOT NULL "
     "ORDER BY id", ()),
    ("SELECT CAST('12' AS INTEGER), CAST(3 AS TEXT), CAST(2 AS REAL)", ()),
    ("SELECT replace(name, 'a', 'o') FROM emp ORDER BY id", ()),
    # --- aggregates / GROUP BY / HAVING ---------------------------------
    ("SELECT sum(salary), avg(salary), min(salary), max(salary) "
     "FROM emp", ()),
    ("SELECT sum(bonus) FROM emp WHERE name = 'eli'", ()),  # empty -> NULL
    ("SELECT count(DISTINCT dept_id) FROM emp", ()),
    ("SELECT dept_id, count(*) AS c FROM emp GROUP BY dept_id "
     "ORDER BY c DESC, dept_id", ()),
    ("SELECT dept_id, sum(salary) AS total FROM emp "
     "WHERE salary IS NOT NULL GROUP BY dept_id ORDER BY dept_id", ()),
    ("SELECT dept_id, avg(salary) AS a FROM emp GROUP BY dept_id "
     "HAVING avg(salary) > 85 ORDER BY dept_id", ()),
    ("SELECT dept_id, count(*) FROM emp GROUP BY dept_id "
     "HAVING count(*) > 1 ORDER BY dept_id", ()),
    ("SELECT stddev(salary) FROM emp", ()),
    # total() is 0.0 where sum() is NULL (the all-NULL dept_id IS NULL
    # group); group_concat joins each group's rows in rowid order
    ("SELECT dept_id, total(bonus), sum(bonus) FROM emp "
     "GROUP BY dept_id ORDER BY dept_id", ()),
    ("SELECT dept_id, group_concat(hired) FROM emp "
     "GROUP BY dept_id ORDER BY dept_id", ()),
    # avg and total over an empty relation
    ("SELECT avg(salary), total(salary), count(*) FROM emp "
     "WHERE dept_id = 99", ()),
    # avg of an all-NULL group; stddev of a one-row group (dept 3) is NULL
    ("SELECT dept_id, avg(salary), stddev(salary) FROM emp "
     "GROUP BY dept_id ORDER BY dept_id", ()),
    # count(DISTINCT ...) per group: the 1 group holds depts 1, 1, 2, 2
    ("SELECT salary > 75, count(DISTINCT dept_id), count(*) FROM emp "
     "GROUP BY salary > 75 ORDER BY 1", ()),
    # --- joins -----------------------------------------------------------
    ("SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id "
     "ORDER BY e.name", ()),
    ("SELECT e.name, d.name FROM emp e LEFT JOIN dept d "
     "ON e.dept_id = d.id ORDER BY e.name", ()),
    ("SELECT d.name, count(e.id) AS headcount FROM dept d "
     "LEFT JOIN emp e ON e.dept_id = d.id GROUP BY d.name "
     "ORDER BY d.name", ()),
    ("SELECT e.name, d.budget FROM emp e JOIN dept d "
     "ON e.dept_id = d.id WHERE d.budget > 600 ORDER BY e.name", ()),
    ("SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 "
     "ON e1.dept_id = e2.dept_id AND e1.id < e2.id "
     "ORDER BY e1.name, e2.name", ()),
    ("SELECT e.name, d.name FROM emp e CROSS JOIN dept d "
     "ORDER BY e.name, d.name LIMIT 5", ()),
    # --- ORDER BY / LIMIT / OFFSET / DISTINCT ---------------------------
    ("SELECT name FROM emp ORDER BY salary DESC, name LIMIT 3", ()),
    ("SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 2", ()),
    ("SELECT name FROM emp ORDER BY name LIMIT ? OFFSET ?", (3, 1)),
    ("SELECT DISTINCT dept_id FROM emp ORDER BY dept_id", ()),
    ("SELECT DISTINCT salary FROM emp WHERE salary IS NOT NULL "
     "ORDER BY salary DESC", ()),
    ("SELECT name FROM emp ORDER BY 1 DESC LIMIT 4", ()),
    # --- compound selects ------------------------------------------------
    ("SELECT name FROM emp WHERE dept_id = 1 UNION "
     "SELECT name FROM emp WHERE salary > 90 ORDER BY name", ()),
    ("SELECT dept_id FROM emp UNION ALL SELECT id FROM dept "
     "ORDER BY 1", ()),
    ("SELECT name FROM emp EXCEPT SELECT name FROM emp "
     "WHERE dept_id = 1 ORDER BY name", ()),
    ("SELECT dept_id FROM emp INTERSECT SELECT id FROM dept "
     "ORDER BY 1", ()),
    # --- UPDATE / DELETE -------------------------------------------------
    ("UPDATE emp SET bonus = 0.0 WHERE bonus IS NULL", ()),
    ("SELECT name, bonus FROM emp ORDER BY id", ()),
    ("UPDATE emp SET salary = salary * 1.1 WHERE dept_id = 2", ()),
    ("SELECT name, salary FROM emp WHERE dept_id = 2 ORDER BY id", ()),
    Err("UPDATE emp SET name = NULL WHERE id = 1"),
    ("DELETE FROM emp WHERE salary IS NULL", ()),
    ("SELECT count(*) FROM emp", ()),
    ("INSERT INTO emp (name, dept_id, salary) "
     "SELECT name || '2', dept_id, salary FROM emp WHERE dept_id = 1", ()),
    ("SELECT name FROM emp ORDER BY name", ()),
    ("DELETE FROM emp WHERE name LIKE '%2'", ()),
    ("SELECT count(*) FROM emp", ()),
    # --- ALTER TABLE -----------------------------------------------------
    ("ALTER TABLE dept ADD COLUMN location TEXT", ()),
    ("UPDATE dept SET location = 'hq' WHERE id = 1", ()),
    ("SELECT name, location FROM dept ORDER BY id", ()),
    # --- bulk-load mode --------------------------------------------------
    # MiniSQL defers secondary-index maintenance inside the pragma pair;
    # sqlite ignores the (unknown) pragma.  Results must stay identical
    # both during the bulk window (full scans) and after the rebuild.
    ("PRAGMA bulk_load(on)", ()),
    ("INSERT INTO emp (name, dept_id, salary, bonus, hired) VALUES "
     "('gus', 3, 70.0, 0.0, '2006-06-06'), "
     "('hal', 3, 71.0, 0.0, '2007-07-07'), "
     "('ivy', 1, 72.0, 0.0, '2008-08-08')", ()),
    ("SELECT name FROM emp WHERE dept_id = 3 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE salary BETWEEN 69 AND 73 ORDER BY name", ()),
    ("UPDATE emp SET salary = 73.5 WHERE name = 'gus'", ()),
    ("SELECT name, salary FROM emp WHERE dept_id = 3 ORDER BY name", ()),
    # a violation inside the bulk window fails on both and changes nothing
    Err("INSERT INTO dept (name) VALUES ('eng')"),
    ("SELECT count(*) FROM dept", ()),
    ("PRAGMA bulk_load = off", ()),
    ("SELECT name FROM emp WHERE salary BETWEEN 69 AND 74 ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept_id = 1 ORDER BY name", ()),
    ("DELETE FROM emp WHERE name IN ('gus', 'hal', 'ivy')", ()),
    ("SELECT count(*) FROM emp", ()),
]

#: Index probes.  A columnar MiniSQL table answers a hash ``eq`` probe or
#: an unordered btree ``range`` with the vector plan over the probed
#: slots; an ordered walk (ORDER BY ... LIMIT) keeps streaming through
#: the row path.  Column ``x`` is INTEGER but holds 2.5, which MiniSQL
#: keeps in its escape hatch: the column is impure, so expressions over
#: it refuse the vector plan while plain projections still gather it.
PROBE_CORPUS = [
    ("CREATE TABLE probe (id INTEGER PRIMARY KEY AUTOINCREMENT, "
     "k INTEGER, r REAL, v REAL, x INTEGER, s TEXT)", ()),
    ("CREATE INDEX idx_probe_k ON probe (k)", ()),
    MiniSQLOnly("CREATE INDEX idx_probe_r ON probe (r) USING BTREE"),
    ("INSERT INTO probe (k, r, v, x, s) VALUES "
     "(1, 1.5, 10.0, 3, 'a'), (2, 2.5, NULL, 4, NULL), "
     "(1, 3.5, -1.0, 2.5, 'c'), (3, 0.5, NULL, 6, 'd'), "
     "(2, 4.5, 7.5, 7, 'e'), (1, NULL, 2.0, 8, NULL), "
     "(3, 5.5, 3.0, 9, 'g'), (2, 6.5, NULL, 10, 'h')", ()),
    # hash eq probes: index (rowid) order, a sort, NULLs, aggregates
    ("SELECT id, k, r, v, s FROM probe WHERE k = 2", ()),
    ("SELECT id, v, s FROM probe WHERE k = ? ORDER BY r DESC", (2,)),
    ("SELECT count(*), sum(r), min(v), max(v), count(s) FROM probe "
     "WHERE k = 2", ()),
    ("SELECT id, coalesce(v, -1.0), r * 2 FROM probe WHERE k = 3 "
     "ORDER BY id", ()),
    # residual WHERE, re-checked over the gathered columns
    ("SELECT id, r FROM probe WHERE k = 1 AND v > 0 ORDER BY id", ()),
    ("SELECT id FROM probe WHERE k = 1 AND s IS NULL", ()),
    # the impure column: plain projections still gather it, an
    # expression over it is refused
    ("SELECT * FROM probe WHERE k = 1 ORDER BY id", ()),
    ("SELECT id, x * 2 FROM probe WHERE k = 1 ORDER BY id", ()),
    # unordered btree ranges (ORDER BY does not follow idx_probe_r)
    ("SELECT id, r, v FROM probe WHERE r BETWEEN 1.0 AND 6.0 "
     "ORDER BY id", ()),
    ("SELECT id FROM probe WHERE r > 2.0 AND s IS NOT NULL "
     "ORDER BY s", ()),
    ("SELECT sum(v), count(v), max(r) FROM probe WHERE r < 5.0", ()),
    # empty probes fall back; aggregates still answer one row
    ("SELECT id FROM probe WHERE k = 99", ()),
    ("SELECT count(*), sum(r) FROM probe WHERE k = 99", ()),
    ("SELECT id FROM probe WHERE r > 100.0 ORDER BY id", ()),
    # ordered btree walks stream through the row path and stop early
    ("SELECT id, r FROM probe ORDER BY r LIMIT 3", ()),
    ("SELECT id, r FROM probe WHERE r > 1.0 ORDER BY r DESC LIMIT 2", ()),
    # tombstoned slots, then an id deleted and inserted again
    ("DELETE FROM probe WHERE id IN (2, 5)", ()),
    ("SELECT id, r, v FROM probe WHERE k = 2", ()),
    ("SELECT id, r FROM probe WHERE r BETWEEN 0.0 AND 10.0 "
     "ORDER BY id", ()),
    ("INSERT INTO probe (id, k, r, v, x, s) VALUES "
     "(2, 2, 9.5, NULL, 11, 'back')", ()),
    ("SELECT id, r, v, s FROM probe WHERE k = 2 ORDER BY id", ()),
    ("SELECT id, r FROM probe WHERE r >= 6.0 ORDER BY r", ()),
    # An index finds what a scan finds whatever the key's class: a
    # string key probes a numeric column with its number, and a number
    # declines a TEXT column's index ('2' = 2 and '2.0' = 2 both hold),
    # as does a range bound of the other class than its column.
    ("CREATE TABLE keyed (id INTEGER PRIMARY KEY, e INTEGER, r REAL, "
     "t TEXT)", ()),
    ("INSERT INTO keyed (id, e, r, t) VALUES " + ", ".join(
        f"({i + 1}, {i % 3}, {float(i % 3)!r}, '{i % 3}')" for i in range(9)
    ), ()),
    ("CREATE INDEX idx_keyed_e ON keyed (e)", ()),
    MiniSQLOnly("CREATE INDEX idx_keyed_r ON keyed (r) USING BTREE"),
    MiniSQLOnly("CREATE INDEX idx_keyed_t ON keyed (t) USING BTREE"),
    ("SELECT id FROM keyed WHERE e = '2'", ()),
    ("SELECT id FROM keyed WHERE e = ?", ("2",)),
    ("SELECT id, e FROM keyed WHERE e = '2.0'", ()),
    ("SELECT id FROM keyed WHERE e = 'x'", ()),
    ("SELECT id, r FROM keyed WHERE r = '2'", ()),
    ("SELECT id FROM keyed WHERE e >= '2' ORDER BY id", ()),
    ("SELECT id FROM keyed WHERE r >= '2' ORDER BY id", ()),
    ("SELECT id FROM keyed WHERE r < ? ORDER BY id", ("1",)),
    ("SELECT id FROM keyed WHERE t = 2", ()),
    ("SELECT id FROM keyed WHERE t = ?", (2,)),
    ("SELECT id FROM keyed WHERE t <= 5 ORDER BY id", ()),
    ("SELECT id FROM keyed WHERE t BETWEEN 1 AND 2 ORDER BY id", ()),
]

CORPUS += PROBE_CORPUS


def _normalise(rows):
    out = []
    for row in rows:
        out.append(tuple(
            round(v, 9) if isinstance(v, float) and math.isfinite(v) else v
            for v in row
        ))
    return out


@pytest.fixture(
    params=list(modes.MODES),
    ids=modes.ids(compiled="compile-on", interpreted="compile-off"),
)
def backends(request):
    """Backend pair, with MiniSQL in each execution mode — the corpus
    must pass identically every way."""
    sqlite_conn = connect("sqlite://:memory:")
    minisql_conn = modes.enter(connect("minisql://:memory:"), request.param)
    yield sqlite_conn, minisql_conn
    sqlite_conn.close()
    minisql_conn.close()


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 60


def test_corpus_identical_on_both_backends(backends):
    sqlite_conn, minisql_conn = backends
    for position, entry in enumerate(CORPUS):
        if isinstance(entry, Err):
            for conn in backends:
                with pytest.raises(IntegrityError):
                    conn.execute(entry.sql, entry.params)
                conn.rollback()
            continue
        if isinstance(entry, MiniSQLOnly):
            minisql_conn.execute(*entry)
            minisql_conn.commit()
            continue
        sql, params = entry
        results = []
        for conn in backends:
            cursor = conn.execute(sql, params)
            if sql.lstrip().upper().startswith("SELECT"):
                results.append(_normalise(cursor.fetchall()))
            else:
                conn.commit()
                results.append(None)
        assert results[0] == results[1], (
            f"statement #{position} diverged: {sql!r}\n"
            f"  sqlite : {results[0]!r}\n"
            f"  minisql: {results[1]!r}"
        )


def test_divergence_is_detected(backends):
    """The harness itself must be able to fail: perturb one backend."""
    sqlite_conn, minisql_conn = backends
    for conn in backends:
        conn.execute("CREATE TABLE probe (v INTEGER)")
        conn.execute("INSERT INTO probe VALUES (1)")
    minisql_conn.execute("INSERT INTO probe VALUES (2)")
    a = sqlite_conn.query("SELECT count(*) FROM probe")
    b = minisql_conn.query("SELECT count(*) FROM probe")
    assert a != b

"""MiniSQL's SELECT execution modes, for the equivalence suites.

MiniSQL runs one SELECT pipeline whose sections are closures: compiled
where the compiler lowers an expression, interpreted where it does not.
Each mode below puts a *fresh* connection in a state that exercises one
way through it:

* ``interpreted``: the compiler refuses every expression, so every
  section runs ``expr.evaluate`` (the reference the others must match);
* ``compiled``: the default, compiled closures;
* ``columnar``: new tables use columnar storage, so single-table
  statements may run the vectorized plan.

Adding or deleting a mode is one line in :data:`MODES`.  A mode is set
once, on a connection that has not run a statement yet, so no plan
cached on a statement in one mode is reused in another.  The
interpreted mode lives on the connection's executor; a snapshot read
(``PRAGMA snapshot_isolation``) runs on an executor of its own, and
compiles.
"""

from __future__ import annotations

from repro.db import minisql
from repro.db.minisql.engine import Connection
from repro.db.minisql.executor import _Interpreted


def _refuse(expr, columns, ambiguous=frozenset(), agg_slots=None, used=None):
    """``Executor._section`` with a compiler that refuses everything."""
    return _Interpreted(expr, columns, ambiguous, agg_slots)


#: Mode name -> what puts a fresh connection into it.
MODES = {
    "interpreted": lambda raw: setattr(raw._executor, "_section", _refuse),
    "compiled": lambda raw: None,
    "columnar": lambda raw: raw.execute("PRAGMA columnar(on)"),
}


def ids(**renamed: str) -> list[str]:
    """Test ids for :data:`MODES` in order, with ``renamed`` modes
    printed under the names a suite has always used for them."""
    return [renamed.get(mode, mode) for mode in MODES]


def enter(conn, mode: str):
    """Put ``conn`` (a MiniSQL connection, or a ``repro.db`` connection
    over one) into ``mode``; returns ``conn``."""
    raw = getattr(conn, "_raw", conn)
    assert not raw._statement_cache, "modes are set on fresh connections"
    MODES[mode](raw)
    return conn


def connect(mode: str, database=None) -> Connection:
    """A fresh MiniSQL connection in ``mode``: onto ``database`` (a
    ``minisql.storage.Database``) when given, else a new private one."""
    conn = minisql.connect() if database is None else Connection(database)
    return enter(conn, mode)

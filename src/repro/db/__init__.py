"""``repro.db`` — the relational substrate behind PerfDMF.

Two runnable engines behind one API:

* ``sqlite`` — the stdlib C engine (with STDDEV/VARIANCE registered),
* ``minisql`` — a from-scratch pure-Python engine (:mod:`repro.db.minisql`).

Use :func:`repro.db.connect` with a URL::

    from repro import db
    conn = db.connect("sqlite://:memory:")
    conn = db.connect("minisql://shared-archive")
"""

from .._lazy import lazy_exports
from .api import ColumnMetadata, DBConnection, connect, parse_url
from .dialects import DIALECTS, Dialect, get_dialect
from .pool import ConnectionPool, PoolTimeout

# The exception aliases load sqlite3: resolved on first access.
__getattr__ = lazy_exports(__name__, {"errors": (
    "DatabaseError", "IntegrityError", "OperationalError", "ProgrammingError",
)})

__all__ = [
    "connect", "parse_url", "DBConnection", "ColumnMetadata",
    "ConnectionPool", "PoolTimeout", "Dialect", "DIALECTS", "get_dialect",
    "DatabaseError", "IntegrityError", "OperationalError", "ProgrammingError",
]

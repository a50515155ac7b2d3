"""Uniform exception aliases: each catches one kind of error from either
engine, so callers of :mod:`repro.db` never name an engine module.

:mod:`repro.db` and :mod:`repro.db.api` resolve these names on first
access, so a MiniSQL-only process never loads :mod:`sqlite3`.
"""

from __future__ import annotations

import sqlite3

from . import minisql

DatabaseError = (sqlite3.DatabaseError, minisql.DatabaseError)
IntegrityError = (sqlite3.IntegrityError, minisql.IntegrityError)
OperationalError = (sqlite3.OperationalError, minisql.OperationalError)
ProgrammingError = (sqlite3.ProgrammingError, minisql.ProgrammingError)

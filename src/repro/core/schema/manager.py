"""Schema installation and the flexible-schema management operations."""

from __future__ import annotations

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _registry

from ...db import api  # api.IntegrityError loads sqlite3: named at the except
from ...db.api import DBConnection
from .ddl import (
    DEFAULT_METADATA, REQUIRED_COLUMNS, TABLE_NAMES, UNIQUE_CONSTRAINTS,
    ddl_statements,
)

_log = get_logger("repro.schema")

#: abstract → concrete types accepted by add_metadata_column
_ABSTRACT_TYPES = ("INT", "DOUBLE", "STRING", "TEXT", "TIMESTAMP")


class SchemaError(RuntimeError):
    """Raised for schema installation/validation problems."""


class SchemaManager:
    """Installs and maintains the PerfDMF schema on one connection."""

    def __init__(self, connection: DBConnection):
        self.connection = connection

    # -- installation -----------------------------------------------------------

    def is_installed(self) -> bool:
        existing = {t.lower() for t in self.connection.table_names()}
        return all(t in existing for t in TABLE_NAMES)

    #: Hot tables (paper §4: the schema's volume lives here) that get
    #: MiniSQL's columnar storage at install time.
    COLUMNAR_TABLES = ("interval_location_profile", "metric", "interval_event")

    def install(self) -> None:
        """Create all schema tables and indexes (idempotent)."""
        if self.is_installed():
            if self.connection.dialect.name == "minisql":
                self._restore_unique_constraints()
            return
        for statement in ddl_statements(self.connection.dialect):
            self.connection.execute(statement)
        self.connection.commit()
        if self.connection.dialect.name == "minisql":
            # Freshly created, so the conversion copies zero rows.
            for table in self.COLUMNAR_TABLES:
                self.connection.execute(f"PRAGMA columnar({table} on)")

    def _restore_unique_constraints(self) -> None:
        """Give a MiniSQL archive back the UNIQUE constraints it lost.

        Archives whose dump did not yet render UNIQUE constraints reopen
        without them.  Each missing one comes back as a unique index
        under the name MiniSQL gives the constraint (``__uqc_<table>_0``),
        which later dumps write as a table constraint again.  Stored rows
        that already break a constraint are logged and counted, and the
        archive opens without that constraint.
        """
        for table, columns in UNIQUE_CONSTRAINTS.items():
            wanted = ",".join(columns)
            indexes = self.connection.query(f"PRAGMA index_list({table})")
            if any(unique and cols.lower() == wanted for _, unique, cols in indexes):
                continue
            try:
                self.connection.execute(
                    f"CREATE UNIQUE INDEX __uqc_{table}_0 "
                    f"ON {table} ({', '.join(columns)})"
                )
            except api.IntegrityError as exc:
                _registry.counter("schema.unique_violations").inc()
                _log.warning(
                    "unique_constraint_violated", table=table,
                    columns=wanted, error=str(exc),
                )

    def verify(self) -> list[str]:
        """Check required columns; returns a list of problems."""
        problems: list[str] = []
        existing = {t.lower() for t in self.connection.table_names()}
        for table in TABLE_NAMES:
            if table not in existing:
                problems.append(f"missing table {table}")
        for table, required in REQUIRED_COLUMNS.items():
            if table not in existing:
                continue
            columns = {c.lower() for c in self.connection.column_names(table)}
            for column in required:
                if column not in columns:
                    problems.append(f"missing required column {table}.{column}")
        return problems

    # -- flexible schema (paper §3.2) -----------------------------------------------

    def add_metadata_column(
        self, table: str, column: str, abstract_type: str = "STRING"
    ) -> None:
        """Add a metadata column to APPLICATION/EXPERIMENT/TRIAL.

        *"The schema is designed such that if capturing such data as
        compiler names and versions, operating system attributes, etc. is
        important for analysis, then those columns can be added to the
        database"* — no code change needed; entity objects pick the new
        column up automatically via ``get_metadata``.
        """
        table = table.lower()
        if table not in REQUIRED_COLUMNS:
            raise SchemaError(
                f"metadata columns may only be added to "
                f"{sorted(REQUIRED_COLUMNS)}, not {table!r}"
            )
        abstract_type = abstract_type.upper()
        if abstract_type not in _ABSTRACT_TYPES:
            raise SchemaError(
                f"unknown abstract type {abstract_type!r}; "
                f"use one of {_ABSTRACT_TYPES}"
            )
        if not _safe_identifier(column):
            raise SchemaError(f"invalid column name {column!r}")
        concrete = self.connection.dialect.type_for(abstract_type)
        self.connection.execute(f"ALTER TABLE {table} ADD COLUMN {column} {concrete}")
        self.connection.commit()

    def metadata_columns(self, table: str) -> list[str]:
        """The table's non-required columns, discovered at runtime."""
        table = table.lower()
        if table not in REQUIRED_COLUMNS:
            raise SchemaError(f"not a flexible table: {table!r}")
        required = set(REQUIRED_COLUMNS[table])
        return [
            c.name
            for c in self.connection.get_metadata(table)
            if c.name.lower() not in required
        ]


def _safe_identifier(name: str) -> bool:
    return bool(name) and name[0].isalpha() and all(
        c.isalnum() or c == "_" for c in name
    )

"""The PerfDMF relational schema (paper §3.2), rendered per dialect.

Tables::

    APPLICATION ── EXPERIMENT ── TRIAL ─┬─ METRIC
                                        ├─ INTERVAL_EVENT ─┬─ INTERVAL_LOCATION_PROFILE
                                        │                  ├─ INTERVAL_TOTAL_SUMMARY
                                        │                  └─ INTERVAL_MEAN_SUMMARY
                                        └─ ATOMIC_EVENT ──── ATOMIC_LOCATION_PROFILE

plus the ANALYSIS_RESULT/ANALYSIS_SETTINGS extension PerfExplorer added
(paper §5.3: *"the PerfExplorer developers were able to extend the
PerfDMF database API to support saving and retrieving analysis
results"*).

The APPLICATION / EXPERIMENT / TRIAL tables are *flexible*: the id,
name and foreign-key columns are required, and any other metadata
column may be added or removed without code changes — entity objects
discover columns through ``get_metadata`` at runtime.
"""

from __future__ import annotations

from ...db.dialects import Dialect, get_dialect

#: Columns that must exist; everything else is optional metadata.
REQUIRED_COLUMNS = {
    "application": ("id", "name"),
    "experiment": ("id", "name", "application"),
    "trial": ("id", "name", "experiment"),
}

#: Each flexible table's UNIQUE table constraint: a name is unique
#: within its parent.
UNIQUE_CONSTRAINTS = {
    "application": ("name",),
    "experiment": ("application", "name"),
    "trial": ("experiment", "name"),
}

#: Default metadata columns — the "such as" lists from paper §3.2.
#: Deployments may add/remove these freely (tested in the schema tests).
DEFAULT_METADATA = {
    "application": (
        ("version", "STRING"),
        ("description", "STRING"),
        ("language", "STRING"),
    ),
    "experiment": (
        ("system_info", "STRING"),
        ("compiler_info", "STRING"),
        ("configuration_info", "STRING"),
    ),
    "trial": (
        ("date", "TIMESTAMP"),
        ("problem_definition", "STRING"),
        ("node_count", "INT"),
        ("contexts_per_node", "INT"),
        ("max_threads_per_context", "INT"),
        # Free-form trial metadata captured by the measurement system,
        # serialised as JSON (PerfDMF's XML_METADATA column).
        ("xml_metadata", "TEXT"),
    ),
}

#: The measurement columns of INTERVAL_LOCATION_PROFILE and the two
#: summary tables (identical shape, paper §3.2).
PROFILE_VALUE_COLUMNS = (
    ("inclusive", "DOUBLE"),
    ("inclusive_percentage", "DOUBLE"),
    ("exclusive", "DOUBLE"),
    ("exclusive_percentage", "DOUBLE"),
    ("inclusive_per_call", "DOUBLE"),
    ("num_calls", "DOUBLE"),
    ("num_subrs", "DOUBLE"),
)


def _metadata_columns(table: str) -> str:
    parts = []
    for name, abstract in DEFAULT_METADATA[table]:
        parts.append(f"    {name} {{{abstract}}},\n")
    return "".join(parts)


def _unique(table: str) -> str:
    return f"    UNIQUE ({', '.join(UNIQUE_CONSTRAINTS[table])})\n"


def _value_columns() -> str:
    return "".join(f"    {name} {{{t}}},\n" for name, t in PROFILE_VALUE_COLUMNS)


#: Abstract DDL with ``{TYPE}`` placeholders and ``{SERIAL}`` markers.
_ABSTRACT_DDL = f"""
CREATE TABLE application (
    id {{SERIAL}},
    name {{STRING}} NOT NULL,
{_metadata_columns('application')}{_unique('application')});

CREATE TABLE experiment (
    id {{SERIAL}},
    name {{STRING}} NOT NULL,
    application {{INT}} NOT NULL REFERENCES application(id),
{_metadata_columns('experiment')}{_unique('experiment')});

CREATE TABLE trial (
    id {{SERIAL}},
    name {{STRING}} NOT NULL,
    experiment {{INT}} NOT NULL REFERENCES experiment(id),
{_metadata_columns('trial')}{_unique('trial')});

CREATE TABLE metric (
    id {{SERIAL}},
    trial {{INT}} NOT NULL REFERENCES trial(id),
    name {{STRING}} NOT NULL,
    derived {{INT}} NOT NULL DEFAULT 0
);

CREATE TABLE interval_event (
    id {{SERIAL}},
    trial {{INT}} NOT NULL REFERENCES trial(id),
    name {{TEXT}} NOT NULL,
    group_name {{STRING}}
);

CREATE TABLE interval_location_profile (
    interval_event {{INT}} NOT NULL REFERENCES interval_event(id),
    node {{INT}} NOT NULL,
    context {{INT}} NOT NULL,
    thread {{INT}} NOT NULL,
    metric {{INT}} NOT NULL REFERENCES metric(id),
{_value_columns()}    PRIMARY KEY (interval_event, node, context, thread, metric)
);

CREATE TABLE interval_total_summary (
    interval_event {{INT}} NOT NULL REFERENCES interval_event(id),
    metric {{INT}} NOT NULL REFERENCES metric(id),
{_value_columns()}    PRIMARY KEY (interval_event, metric)
);

CREATE TABLE interval_mean_summary (
    interval_event {{INT}} NOT NULL REFERENCES interval_event(id),
    metric {{INT}} NOT NULL REFERENCES metric(id),
{_value_columns()}    PRIMARY KEY (interval_event, metric)
);

CREATE TABLE atomic_event (
    id {{SERIAL}},
    trial {{INT}} NOT NULL REFERENCES trial(id),
    name {{TEXT}} NOT NULL,
    group_name {{STRING}}
);

CREATE TABLE atomic_location_profile (
    atomic_event {{INT}} NOT NULL REFERENCES atomic_event(id),
    node {{INT}} NOT NULL,
    context {{INT}} NOT NULL,
    thread {{INT}} NOT NULL,
    sample_count {{INT}},
    maximum_value {{DOUBLE}},
    minimum_value {{DOUBLE}},
    mean_value {{DOUBLE}},
    standard_deviation {{DOUBLE}},
    PRIMARY KEY (atomic_event, node, context, thread)
);

CREATE TABLE analysis_settings (
    id {{SERIAL}},
    trial {{INT}} REFERENCES trial(id),
    name {{STRING}} NOT NULL,
    method {{STRING}},
    parameters {{TEXT}}
);

CREATE TABLE analysis_result (
    id {{SERIAL}},
    settings {{INT}} NOT NULL REFERENCES analysis_settings(id),
    result_type {{STRING}} NOT NULL,
    item_key {{STRING}},
    value {{TEXT}}
);
"""

#: ``(statement, method)`` pairs; ``method`` is "hash" for pure-equality
#: lookup columns or "btree" for columns serving range predicates and
#: ORDER BY ... LIMIT (engines without USING support ignore the method).
_INDEXES = (
    ("CREATE INDEX idx_experiment_app ON experiment (application)", "hash"),
    ("CREATE INDEX idx_trial_experiment ON trial (experiment)", "btree"),
    ("CREATE INDEX idx_metric_trial ON metric (trial)", "hash"),
    ("CREATE INDEX idx_interval_event_trial ON interval_event (trial)", "hash"),
    (
        "CREATE INDEX idx_ilp_event_metric "
        "ON interval_location_profile (interval_event, metric)",
        "btree",
    ),
    ("CREATE INDEX idx_ilp_metric ON interval_location_profile (metric)", "hash"),
    ("CREATE INDEX idx_ilp_node ON interval_location_profile (node)", "btree"),
    (
        "CREATE INDEX idx_ilp_exclusive "
        "ON interval_location_profile (exclusive)",
        "btree",
    ),
    (
        "CREATE INDEX idx_its_exclusive "
        "ON interval_total_summary (exclusive)",
        "btree",
    ),
    (
        "CREATE INDEX idx_ims_exclusive "
        "ON interval_mean_summary (exclusive)",
        "btree",
    ),
    (
        "CREATE INDEX idx_ims_inclusive "
        "ON interval_mean_summary (inclusive)",
        "btree",
    ),
    ("CREATE INDEX idx_atomic_event_trial ON atomic_event (trial)", "hash"),
    ("CREATE INDEX idx_alp_event ON atomic_location_profile (atomic_event)", "hash"),
    ("CREATE INDEX idx_result_settings ON analysis_result (settings)", "hash"),
)

TABLE_NAMES = (
    "application", "experiment", "trial", "metric",
    "interval_event", "interval_location_profile",
    "interval_total_summary", "interval_mean_summary",
    "atomic_event", "atomic_location_profile",
    "analysis_settings", "analysis_result",
)


def render_ddl(dialect: Dialect | str, with_indexes: bool = True) -> str:
    """Render the full schema DDL for ``dialect``."""
    if isinstance(dialect, str):
        dialect = get_dialect(dialect)
    text = _ABSTRACT_DDL.format(
        SERIAL=dialect.serial_column,
        INT=dialect.type_for("INT"),
        DOUBLE=dialect.type_for("DOUBLE"),
        STRING=dialect.type_for("STRING"),
        TEXT=dialect.type_for("TEXT"),
        TIMESTAMP=dialect.type_for("TIMESTAMP"),
    )
    statements = [text]
    if with_indexes:
        for stmt, method in _INDEXES:
            if dialect.supports_index_method and method != "hash":
                stmt = f"{stmt} USING {method.upper()}"
            statements.append(stmt + ";")
    return "\n".join(statements)


def ddl_statements(dialect: Dialect | str, with_indexes: bool = True) -> list[str]:
    """The schema as individual statements (for engines without scripts)."""
    rendered = render_ddl(dialect, with_indexes)
    return [s.strip() for s in rendered.split(";") if s.strip()]

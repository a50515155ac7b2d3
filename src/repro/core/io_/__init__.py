"""Profile input/output: importers for seven formats + common XML.

Paper §3.1: *"Currently supported profile formats include gprof, TAU
profiles, dynaprof, mpiP, HPMtoolkit (IBM), and Perfsuite (psrun).
(Support for SvPablo is being added.)"* — all seven are implemented,
plus import/export of PerfDMF's common XML representation.

Each name below loads its submodule on first access, so importing one
importer (or the registry) does not load the XML writers, the bulk
pipeline or numpy.
"""

from ..._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "cube": ("cube_string", "export_cube", "parse_cube"),
    "snapshot_xml": ("export_snapshots", "parse_snapshots"),
    "base": ("ProfileParseError", "discover_files", "natural_sort_key"),
    "bulk": ("IngestReport", "ingest_profiles", "parse_columnar", "parse_profiles"),
    "dynaprof": ("parse_dynaprof",),
    "gprof": ("parse_gprof",),
    "hpm": ("parse_hpm",),
    "mpip": ("parse_mpip",),
    "psrun": ("parse_psrun",),
    "registry": ("FORMAT_NAMES", "detect_format", "get_parser", "load_profile"),
    "svpablo": ("parse_svpablo",),
    "tau": ("parse_tau_profiles",),
    "xml_export": ("export_xml", "xml_string"),
    "xml_import": ("parse_xml", "parse_xml_string"),
})

__all__ = [
    "ProfileParseError", "discover_files", "natural_sort_key",
    "parse_tau_profiles", "parse_gprof", "parse_mpip", "parse_dynaprof",
    "parse_hpm", "parse_psrun", "parse_svpablo",
    "export_xml", "xml_string", "parse_xml", "parse_xml_string",
    "export_cube", "cube_string", "parse_cube",
    "export_snapshots", "parse_snapshots",
    "load_profile", "detect_format", "get_parser", "FORMAT_NAMES",
    "IngestReport", "ingest_profiles", "parse_columnar", "parse_profiles",
]

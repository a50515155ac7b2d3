"""A cold start loads only what it runs.

Every ``perfdmf`` command pays for ``import repro.cli``, and every
server start for ``import repro.explorer.server``.  scipy.optimize
serves one curve fit in the scaling models and the call graph is plain
Python, so a cold start loads neither.  The analysis backend needs only
scipy.special (for p-values), so not even a served describe or
correlate request loads scipy.stats (which brings scipy.optimize).  The
database layer needs no numpy at all: MiniSQL's column fetch hands out
``array.array`` columns, which the analysis side reads into numpy
itself.

A catalog command (``perfdmf list``) needs no numpy either: numpy loads
with the first columnar read or store, the importers with the first
parse, the toolkit and the ParaProf views with the first display, and
``http.server`` with the first telemetry endpoint.  The packages that
re-export those names resolve them on first access.  Run as a process,
the CLI freezes its import-time objects out of the collector's scans;
called in-process, it leaves the collector alone.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.session import PerfDMFSession
from repro.tau.apps import EVH1

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == top or name.startswith(top + ".") for top in sys.argv[2:])
)))
"""


_ANALYSIS_CHILD = """
import json, sys
from repro.explorer.server import AnalysisServer
from repro.tau.apps import EVH1

server = AnalysisServer("minisql://:memory:")
session = server.session
experiment = session.create_experiment(session.create_application("a"), "e")
trial = session.save_trial(EVH1(problem_size=0.05, timesteps=1).run(4),
                           experiment, "t").id
x, y = [e["name"] for e in session.get_interval_events(trial)][:2]
server.handle_request("describe_event", {"trial": trial, "event": x})
server.handle_request("correlate_events",
                      {"trial": trial, "event_x": x, "event_y": y})
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == top or name.startswith(top + ".") for top in sys.argv[1:])
)))
"""


def _loaded(module: str, *packages: str) -> list[str]:
    """The modules of ``packages`` that a fresh ``import module`` loads."""
    return _run(_CHILD, module, *packages)


def _run(child: str, *args: str):
    """Run ``child`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", child, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


#: What a catalog command never runs: numpy, the importers, the bulk
#: pipeline's process pool, the scaling models, the HTML report, the
#: interactive shell, the stdlib HTTP stack (telemetry, XML escaping),
#: sockets (the network fault shim) and, on a MiniSQL archive, sqlite3.
NOT_IN_A_COLD_LIST = (
    "numpy", "repro.core.io_", "repro.core.parallel",
    "repro.core.toolkit.modeling", "repro.paraprof.htmlreport",
    "repro.paraprof.shell", "http.server", "urllib.request", "ssl",
    "socket", "sqlite3",
)

#: ``python -m repro.cli ...`` as the child's own entry, through runpy
#: like ``-m``.  The last stdout line reports the freeze count seen
#: inside the command (at the archive tree walk ``list`` makes), the
#: module count, and the loaded modules of the packages named on the
#: command line.
_COLD_CLI_CHILD = """
import gc, json, runpy, sys
from repro.paraprof import manager

seen = []
tree = manager.ArchiveManager.tree
def counting_tree(self):
    seen.append(gc.get_freeze_count())
    return tree(self)
manager.ArchiveManager.tree = counting_tree

frozen_before = gc.get_freeze_count()
url, packages = sys.argv[1], sys.argv[2:]
sys.argv = ["perfdmf", "list", "--db", url]
code = None
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code, "frozen_before": frozen_before, "frozen_in_command": seen,
    "modules": len(sys.modules),
    "loaded": sorted(
        name for name in sys.modules
        if any(name == top or name.startswith(top + ".") for top in packages)
    ),
}))
"""

_NO_NUMPY_CHILD = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked in this process")
        return None

sys.meta_path.insert(0, BlockNumpy())
from repro.cli import main

fresh, stored = sys.argv[1:]
assert main(["configure", "--db", fresh]) == 0
assert main(["list", "--db", fresh]) == 0
assert main(["list", "--db", stored]) == 0
"""


def _archive(tmp_path: Path) -> str:
    """A small file archive holding one generated trial."""
    url = f"minisql://{tmp_path / 'archive.mdb'}"
    session = PerfDMFSession(url)
    experiment = session.create_experiment(session.create_application("evh1"), "e")
    session.save_trial(EVH1(problem_size=0.05, timesteps=1).run(4), experiment, "t4")
    session.close()
    return url


def test_cli_import_leaves_scipy_optimize_and_networkx_out():
    assert _loaded("repro.cli", "networkx", "scipy.optimize") == []


def test_server_import_leaves_scipy_stats_and_optimize_out():
    assert _loaded(
        "repro.explorer.server", "scipy.stats", "scipy.optimize"
    ) == []


def test_describe_and_correlate_requests_leave_scipy_stats_out():
    assert _run(_ANALYSIS_CHILD, "scipy.stats", "scipy.optimize") == []


def test_minisql_and_db_api_imports_leave_numpy_out():
    assert _loaded("repro.db.minisql", "numpy") == []
    assert _loaded("repro.db.api", "numpy") == []


def test_cli_import_loads_no_numpy_importers_toolkit_or_http():
    assert _loaded("repro.cli", *NOT_IN_A_COLD_LIST) == []


def test_obs_import_leaves_http_server_out():
    assert _loaded("repro.obs", "http.server") == []


def test_format_registry_import_leaves_the_http_stack_out():
    """Only the CUBE writer escapes XML, and xml.sax.saxutils loads
    urllib.request: a parse through the registry loads none of it."""
    assert _loaded(
        "repro.core.io_.registry", "ssl", "email", "http.client", "urllib.request"
    ) == []


def test_db_error_aliases_resolve_on_first_access():
    """``repro.db`` loads no sqlite3 until an alias is named; then both
    packages hand out the same tuple of both engines' classes."""
    child = """
import json, sys
import repro.db, repro.db.api
before = "sqlite3" in sys.modules
import sqlite3
from repro.db import IntegrityError
from repro.db.minisql import errors
print(json.dumps([before, IntegrityError is repro.db.api.IntegrityError,
                  IntegrityError == (sqlite3.IntegrityError, errors.IntegrityError)]))
"""
    assert _run(child) == [False, True, True]


def test_cold_list_process_loads_only_what_it_runs(tmp_path):
    url = _archive(tmp_path)
    report = _run(_COLD_CLI_CHILD, url, *NOT_IN_A_COLD_LIST)
    assert report["code"] == 0
    assert report["loaded"] == []
    # The parent of this bound loaded 386 modules for the same command.
    assert report["modules"] <= 210, report["modules"]


def test_cold_list_process_freezes_its_import_time_objects(tmp_path):
    report = _run(_COLD_CLI_CHILD, _archive(tmp_path))
    assert report["frozen_before"] == 0
    assert len(report["frozen_in_command"]) == 1
    assert report["frozen_in_command"][0] > 0


def test_in_process_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    url = _archive(tmp_path)
    before = gc.get_freeze_count()
    assert main(["configure", "--db", url]) == 0
    assert main(["list", "--db", url]) == 0
    assert gc.get_freeze_count() == before
    assert "t4" in capsys.readouterr().out


def test_configure_and_list_run_without_numpy(tmp_path):
    stored = _archive(tmp_path)
    fresh = f"minisql://{tmp_path / 'fresh.mdb'}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD, fresh, stored],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "PerfDMF schema ready" in proc.stdout
    assert "evh1/e/t4" in proc.stdout


def test_names_the_benchmark_uses_still_resolve():
    from repro.core.model import ColumnarTrial
    from repro.paraprof.manager import ArchiveManager, load_profile

    assert callable(load_profile) and callable(ArchiveManager)
    assert ColumnarTrial.__module__ == "repro.core.model.columnar"


@pytest.mark.parametrize("package", [
    "repro.paraprof", "repro.core.io_", "repro.core.toolkit", "repro.core.model",
])
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(module, name) is value
    assert not hasattr(module, "no_such_export")


def test_import_profile_parses_through_the_manager_global(monkeypatch):
    from repro.paraprof import manager

    source = EVH1(problem_size=0.05, timesteps=1).run(2)
    calls = []

    def fake_load_profile(target, format_name=None):
        calls.append((target, format_name))
        return source

    monkeypatch.setattr(manager, "load_profile", fake_load_profile)
    archive = manager.ArchiveManager("minisql://:memory:")
    trial = archive.import_profile("profiles/", "evh1", "e", "t2", format_name="tau")
    assert calls == [("profiles/", "tau")]
    assert archive.find_trial("evh1", "e", "t2").id == trial.id
    archive.session.close()

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
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _run(child: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", child, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


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

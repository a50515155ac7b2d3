"""A cold start loads only what it runs.

Every ``perfdmf`` command pays for ``import repro.cli``, and every
server start for ``import repro.explorer.server``.  scipy.optimize
serves one curve fit in the scaling models, scipy.stats two analysis
methods, and the call graph is plain Python, so a cold start loads
none of them.
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


def _loaded(module: str, *packages: str) -> list[str]:
    """The modules of ``packages`` that a fresh ``import module`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, module, *packages],
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

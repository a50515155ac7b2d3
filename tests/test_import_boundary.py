"""``import repro.cli`` loads only what every command runs.

Every ``perfdmf`` command and every server start pays for this import.
scipy.optimize serves one curve fit in the scaling models and the call
graph is plain Python, so a cold start must load neither scipy.optimize
nor networkx.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
import repro.cli
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "networkx"
    or name == "scipy.optimize" or name.startswith("scipy.optimize.")
)))
"""


def test_cli_import_leaves_scipy_optimize_and_networkx_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == []

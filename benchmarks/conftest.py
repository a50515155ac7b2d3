"""Shared benchmark configuration.

Default sizes are laptop-friendly; set ``REPRO_FULL_SCALE=1`` to run the
paper-scale configurations (16K threads for E1/E2, 1024 threads for E5).
Each benchmark emits "paper anchor -> measured" lines, printed in the
terminal summary — those rows are what EXPERIMENTS.md records.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The repository root, for the equivalence suites' helpers in tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.obs.bench import write_bench_json  # noqa: E402

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

#: Machine-readable ingest numbers (E1 bulk-load, E6 parallel parse) land
#: here at the repo root; CI's benchmark smoke job archives the file.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_e1_ingest.json"

_REPORT_LINES: list[str] = []


def scale(default: int, full: int) -> int:
    return full if FULL_SCALE else default


@pytest.fixture(scope="session")
def report():
    """Collects experiment report lines, shown in the terminal summary."""
    return _REPORT_LINES.append


@pytest.fixture(scope="session")
def bench_json():
    """Merge one section into ``BENCH_e1_ingest.json`` at the repo root,
    wrapped in the common bench envelope (git SHA, timestamp, cores)."""

    def write(section: str, payload: dict) -> None:
        write_bench_json(BENCH_JSON, section, payload)

    return write


def pytest_terminal_summary(terminalreporter) -> None:
    if not _REPORT_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    scale_note = "PAPER SCALE" if FULL_SCALE else "default scale; REPRO_FULL_SCALE=1 for paper scale"
    terminalreporter.write_line(
        f"EXPERIMENT REPORT (paper anchor -> measured)  [{scale_note}]"
    )
    terminalreporter.write_line("=" * 78)
    for line in sorted(_REPORT_LINES):
        terminalreporter.write_line(line)

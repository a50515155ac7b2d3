"""Seed (or top up) the committed bench history from git history.

Replays every committed version of every ``BENCH_*.json`` at the repo
root, oldest first, ingesting each into ``bench_history.mdb``.  Legacy
files (no envelope) get their provenance from the commit that wrote
them: the commit SHA and author date become the trial metadata.  Ingest
is idempotent, so re-running after new bench commits only appends the
new runs.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/seed_bench_history.py [HISTORY]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.bench import DEFAULT_HISTORY, BenchArchive, tidy_archive  # noqa: E402


#: Pre-envelope files whose top level was the payload itself rather than
#: a ``{section: payload}`` mapping — a one-time seeding concern; every
#: current writer goes through ``write_bench_json``.
LEGACY_BARE_SECTIONS = {
    "BENCH_e13_compile.json": "e13_compile",
    "BENCH_e14_columnar.json": "e14_columnar",
}


def _git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout


def bench_versions() -> list[tuple[str, str, str, str]]:
    """Every (commit_sha, iso_date, path, blob_text), oldest commit first."""
    paths = sorted(
        line for line in _git("ls-files").splitlines()
        if line.startswith("BENCH_") and line.endswith(".json")
    )
    versions: list[tuple[str, str, str, str]] = []
    for path in paths:
        log = _git(
            "log", "--follow", "--reverse", "--format=%H %aI", "--", path
        )
        for line in log.splitlines():
            sha, _, date = line.strip().partition(" ")
            try:
                blob = _git("show", f"{sha}:{path}")
            except subprocess.CalledProcessError:
                continue  # the commit deleted or renamed the file
            versions.append((sha, date, path, blob))
    versions.sort(key=lambda v: v[1])
    return versions


def main(argv: list[str]) -> int:
    history = argv[0] if argv else str(REPO / DEFAULT_HISTORY)
    versions = bench_versions()
    stored_total = 0
    with BenchArchive(history) as archive:
        for sha, date, path, blob in versions:
            try:
                doc = json.loads(blob)
            except ValueError:
                print(f"skipping unparseable {path} @ {sha[:12]}")
                continue
            section = LEGACY_BARE_SECTIONS.get(path)
            if section is not None and "benchmarks" not in doc:
                doc = {section: doc}
            stored = archive.ingest_document(
                doc, source=f"{sha[:12]}:{path}",
                default_sha=sha, default_timestamp=date,
            )
            stored_total += len(stored)
            if stored:
                sections = ", ".join(run.experiment for run in stored)
                print(f"{sha[:12]} {date} {path}: {sections}")
    tidy_archive(history)
    print(f"stored {stored_total} new run(s) in {history} "
          f"({len(versions)} file version(s) replayed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

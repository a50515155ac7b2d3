"""Tests for the extended CLI subcommands (transfer/workflow/serve)."""

import json

import pytest

from repro.cli import main
from repro.paraprof import ArchiveManager
from repro.tau.apps import EVH1, SPPM


@pytest.fixture
def src_db(tmp_path):
    db = f"sqlite://{tmp_path}/src.db"
    manager = ArchiveManager(db)
    app = EVH1(problem_size=0.05, timesteps=1)
    for p in (1, 2):
        manager.import_profile(app.run(p), "evh1", "scaling", f"P={p}")
    manager.session.close()
    return db


class TestTransfer:
    def test_single_trial(self, src_db, tmp_path, capsys):
        dst = f"sqlite://{tmp_path}/dst.db"
        assert main([
            "transfer", "--from-db", src_db, "--to-db", dst,
            "--trial-id", "1", "--rename", "copied",
        ]) == 0
        out = capsys.readouterr().out
        assert "transferred trial 1" in out
        assert main(["list", "--db", dst]) == 0
        assert "copied" in capsys.readouterr().out

    def test_synchronise_all(self, src_db, tmp_path, capsys):
        dst = f"sqlite://{tmp_path}/dst.db"
        assert main(["transfer", "--from-db", src_db, "--to-db", dst]) == 0
        out = capsys.readouterr().out
        assert "synchronised 2 trial(s)" in out
        # idempotent
        assert main(["transfer", "--from-db", src_db, "--to-db", dst]) == 0
        assert "synchronised 0 trial(s)" in capsys.readouterr().out


class TestWorkflowCommand:
    def test_runs_workflow_file(self, tmp_path, capsys):
        db = f"sqlite://{tmp_path}/w.db"
        manager = ArchiveManager(db)
        manager.import_profile(
            SPPM(problem_size=0.01, timesteps=1).run(8), "sppm", "e", "t"
        )
        manager.session.close()
        workflow = [
            {"op": "load_trial", "trial": 1, "as": "t"},
            {"op": "top_events", "input": "t", "n": 2, "as": "top"},
        ]
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(workflow))
        capsys.readouterr()
        assert main(["workflow", "--db", db, str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["top"]) == 2
        assert "t" not in out  # trial slots are not printable

    def test_workflow_error_exit_code(self, tmp_path, capsys):
        db = f"sqlite://{tmp_path}/w.db"
        main(["configure", "--db", db])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"op": "nope"}]))
        capsys.readouterr()
        assert main(["workflow", "--db", db, str(path)]) == 1
        assert "unknown operation" in capsys.readouterr().err


class TestServe:
    def test_serve_once_prints_address(self, tmp_path, capsys):
        db = f"sqlite://{tmp_path}/s.db"
        assert main(["serve", "--db", db, "--once"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out

    def test_serve_hands_every_flag_to_the_server(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.explorer

        built = []

        class RecordingServer(repro.explorer.SocketServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.explorer, "SocketServer", RecordingServer)
        db = f"sqlite://{tmp_path}/s.db"
        assert main([
            "serve", "--db", db, "--once", "--no-telemetry",
            "--max-in-flight", "3", "--executor-threads", "2",
            "--max-connections", "5", "--idle-timeout", "7.5",
            "--partial-frame-timeout", "4.5",
        ]) == 0
        assert "listening on 127.0.0.1:" in capsys.readouterr().out
        (server,) = built
        assert server.max_in_flight == 3
        assert server.executor_threads == 2
        assert server.max_connections == 5
        assert server.idle_timeout == 7.5
        assert server.partial_frame_timeout == 4.5
        assert server.telemetry_address is None


class TestReport:
    def test_html_report_written(self, src_db, tmp_path, capsys):
        out = tmp_path / "trial.html"
        assert main([
            "report", "--db", src_db, "--trial-id", "1", "-o", str(out),
        ]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "riemann" in text

    def test_missing_trial_fails(self, src_db, tmp_path, capsys):
        code = main([
            "report", "--db", src_db, "--trial-id", "99",
            "-o", str(tmp_path / "x.html"),
        ])
        assert code == 1

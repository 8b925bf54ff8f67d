"""CLI tests for ``repro trace`` and the observability flags on serve/submit."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import configure_tracing, span
from repro.service import create_server
from repro.service.client import ServiceClient

SPEC = "one-fail-adaptive k=48 reps=3 seed=11"


@pytest.fixture
def trace_file(tmp_path):
    """A small trace log written through the real span machinery."""
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    try:
        with span("job.run", job="job-1"):
            with span("engine.batch", engine="mega", k=64):
                pass
            with span("store.append", runs=3):
                pass
        with span("job.run", job="job-2"):
            pass
    finally:
        configure_tracing(None)
    return path


class TestTraceCommand:
    def test_summary_table(self, capsys, trace_file):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "4 event(s) across 2 trace(s)" in out
        assert "job.run" in out and "engine.batch" in out and "store.append" in out
        assert "slowest traces:" in out
        assert "job=job-1" in out

    def test_json_summary(self, capsys, trace_file):
        assert main(["trace", str(trace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 4
        assert payload["traces"] == 2
        stages = {row["stage"] for row in payload["stages"]}
        assert stages == {"job.run", "engine.batch", "store.append"}
        assert len(payload["slowest"]) == 2

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_file_reports_no_events(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", str(path)]) == 0
        assert "no events on record" in capsys.readouterr().out


class TestObsFlags:
    def test_serve_parser_accepts_no_obs(self):
        args = build_parser().parse_args(["serve", "--no-obs"])
        assert args.obs is False
        assert build_parser().parse_args(["serve"]).obs is True

    def test_submit_wait_prints_progress_to_stderr(self, capsys, tmp_path):
        server = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
        server.start_background()
        try:
            assert main(["submit", SPEC, "--url", server.url]) == 0
        finally:
            server.close()
            configure_tracing(None)
        captured = capsys.readouterr()
        assert "replication(s)" in captured.err
        assert "replication(s)" not in captured.out

    def test_submit_json_suppresses_progress(self, capsys, tmp_path):
        server = create_server(port=0, store_dir=tmp_path / "store", quiet=True)
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            first = client.submit(SPEC)
            client.wait(first.id, timeout=60.0)
            assert main(["submit", SPEC, "--url", server.url, "--json"]) == 0
        finally:
            server.close()
            configure_tracing(None)
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is exactly the JSON payload
        assert "replication(s)" not in captured.err

"""CLI tests for ``repro report`` and the telemetry flags on ``sweep``."""

import json

import pytest

from repro.__main__ import main

BENCH_SNAPSHOT = {
    "schema": 1, "kind": "bench", "timestamp": "2026-08-08T00:00:00Z",
    "benchmarks": {
        "Camel/svr16": {"throughput": {"median": 1000.0}},
        "Randacc/svr16": {"throughput": {"median": 500.0}},
    },
}


@pytest.fixture
def journal(tmp_path, capsys):
    """A real sweep journal with telemetry, produced through the CLI."""
    path = tmp_path / "journal.jsonl"
    assert main(["sweep", "svr16", "--workloads", "Camel",
                 "--axis", "svr.srf_entries=2,8", "--scale", "tiny",
                 "--journal", str(path)]) == 0
    capsys.readouterr()
    return path


class TestReportCommand:
    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "nothing to report on" in capsys.readouterr().err

    def test_html_report_from_journal(self, journal, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["report", "--journal", str(journal),
                     "-o", str(out)]) == 0
        captured = capsys.readouterr()
        # 2 axis points + the implicit baseline cell
        assert "3 cell(s): 3 ok" in captured.out
        assert "report written to" in captured.err
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html>")
        assert "<script" not in html        # fully static, no JS deps
        assert "Camel/svr16" in html
        assert "sweep timeline" in html
        assert "prefers-color-scheme" in html

    def test_json_output(self, journal, tmp_path, capsys):
        assert main(["report", "--journal", str(journal),
                     "-o", str(tmp_path / "r.html"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["cells"]) == 3
        assert all(c["status"] == "ok" for c in data["cells"])
        assert all(c["cpu_s"] is not None for c in data["cells"])
        assert data["metrics"]["core.instructions"]["kind"] == "counter"
        assert data["resources"]["cells"] == 3

    def test_json_aggregates_equal_the_run_that_wrote_it(self, tmp_path,
                                                         capsys):
        """The dashboard aggregates a journal with the executor's own
        functions, so it reports what the run reported."""
        from repro.exec import ExecConfig, RunSpec, TelemetryConfig, run_cells
        from repro.obs.probes import ProbeBus

        path = tmp_path / "journal.jsonl"
        specs = [RunSpec.make(w, t, scale="tiny") for w, t in (
            ("Randacc", "svr16"), ("Camel", "inorder"), ("HJ2", "svr16"))]
        report = run_cells(specs, ExecConfig(
            jobs=2, journal=str(path), telemetry=TelemetryConfig(),
            bus=ProbeBus()))
        assert main(["report", "--journal", str(path),
                     "-o", str(tmp_path / "r.html"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"] == json.loads(json.dumps(
            report.merged_metrics()))
        assert data["resources"] == report.resources()

    def test_bench_dir_trajectory(self, tmp_path, capsys):
        for stamp in ("20260807", "20260808"):
            snap = dict(BENCH_SNAPSHOT,
                        timestamp=f"2026-08-0{stamp[-1]}T00:00:00Z")
            (tmp_path / f"BENCH_{stamp}.json").write_text(
                json.dumps(snap))
        out = tmp_path / "report.html"
        assert main(["report", "--bench-dir", str(tmp_path),
                     "-o", str(out)]) == 0
        assert "2 bench snapshot(s)" in capsys.readouterr().out
        assert "Camel/svr16" in out.read_text()

    def test_failed_cells_surface_in_taxonomy(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        main(["sweep", "svr16", "--workloads", "Camel",
              "--axis", "svr.srf_entries=2,8", "--scale", "tiny",
              "--retries", "0", "--journal", str(journal),
              "--inject", "Camel/*srf_entries=2*:crash"])
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert main(["report", "--journal", str(journal),
                     "-o", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["failure_taxonomy"].get("crash") == 1
        statuses = {c["status"] for c in data["cells"]}
        assert statuses == {"ok", "failed"}


class TestSweepTelemetryFlags:
    def test_sweep_reports_resources_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["sweep", "svr16", "--workloads", "Camel",
                     "--axis", "svr.srf_entries=2,8", "--scale", "tiny",
                     "--jobs", "2", "--trace", str(trace_path)]) == 0
        err = capsys.readouterr().err
        assert "telemetry: 3 cell(s)" in err
        assert "merged exec trace written to" in err
        from repro.obs import validate_trace

        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        tracks = [ev for ev in trace["traceEvents"]
                  if ev.get("ph") == "M"
                  and ev.get("name") == "process_name"]
        assert len(tracks) == 3            # parent + jobs=2 warm workers

    def test_no_telemetry_opts_out(self, capsys):
        assert main(["sweep", "svr16", "--workloads", "Camel",
                     "--axis", "svr.srf_entries=2,8", "--scale", "tiny",
                     "--no-telemetry"]) == 0
        err = capsys.readouterr().err
        assert "telemetry:" not in err


class TestCorruptJournal:
    def test_report_and_top_warn_and_keep_both_cells(self, tmp_path,
                                                     capsys):
        cell = {"event": "cell", "scale": "tiny", "technique": "svr16",
                "status": "ok", "attempts": 1, "elapsed_s": 0.5}
        path = tmp_path / "torn.jsonl"
        path.write_text("\n".join([
            json.dumps(dict(cell, key="k1", workload="Camel")),
            "{ torn mid-file",
            json.dumps(dict(cell, key="k2", workload="HJ2")),
        ]) + "\n")
        message = "skipping corrupt record at line 2"

        with pytest.warns(RuntimeWarning, match=message):
            assert main(["report", "--journal", str(path),
                         "-o", str(tmp_path / "r.html"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["workload"] for c in data["cells"]] == ["Camel", "HJ2"]

        with pytest.warns(RuntimeWarning, match=message):
            assert main(["top", "--journal", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "settled 2 cell(s): 2 ok" in out
        assert "Camel/svr16" in out and "HJ2/svr16" in out

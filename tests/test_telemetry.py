"""Cross-process telemetry: worker capture, pipe/journal transport, and
the deterministic parent-side merge."""

import itertools
import json
import os

import pytest

from repro.exec import (
    ExecConfig,
    RunSpec,
    TelemetryConfig,
    run_cells,
)
from repro.obs import merge_typed_snapshots, validate_trace
from repro.obs.probes import ProbeBus

TINY = [("Camel", "svr16"), ("Camel", "inorder"), ("Randacc", "svr16")]


def _specs():
    return [RunSpec.make(w, t, scale="tiny") for w, t in TINY]


def _config(**kw):
    kw.setdefault("telemetry", TelemetryConfig())
    kw.setdefault("bus", ProbeBus())      # keep the default bus quiet
    return ExecConfig(**kw)


def _process_names(trace):
    return {ev["pid"] for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"}


class TestTelemetryConfig:
    def test_off_by_default(self):
        assert ExecConfig().telemetry is None

    def test_validators(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_tail=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(max_spans=0)


class TestInlineCapture:
    def test_payload_shape(self):
        report = run_cells(_specs(), _config())
        records = report.telemetry_records()
        assert len(records) == 3
        for telem in records:
            assert telem["v"] == 1
            assert telem["status"] == "ok"
            assert telem["cpu_s"] >= 0.0
            assert telem["max_rss_kib"] > 0
            assert "start" in telem["measure_wall"]
            assert "end" in telem["measure_wall"]
            names = {s["name"] for s in telem["spans"]}
            assert {"cell", "build", "warmup", "measure",
                    "serialize"} <= names
            assert telem["metrics"]["core.instructions"]["kind"] == \
                "counter"

    def test_no_capture_when_telemetry_none(self):
        report = run_cells(_specs()[:1],
                           ExecConfig(bus=ProbeBus()))
        assert report.telemetry_records() == []
        assert report.merged_metrics() == {}
        assert all(o.telemetry is None for o in report.outcomes)

    def test_failed_cell_still_carries_telemetry(self):
        bad = RunSpec.make("Camel", "svr16", scale="tiny")
        bad = RunSpec(workload="NoSuchWorkload", tech=bad.tech,
                      scale="tiny")
        report = run_cells([bad], _config(retries=0))
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert outcome.telemetry is not None
        assert outcome.telemetry["status"] == "failed"
        cell = next(s for s in outcome.telemetry["spans"]
                    if s["name"] == "cell")
        assert cell["status"] == "error"

    def test_parent_spans_recorded(self):
        report = run_cells(_specs()[:2], _config())
        names = [s["name"] for s in report.parent_spans]
        assert names.count("attempt") == 2
        assert names[-1] == "run_cells"


class TestIsolatedCapture:
    def test_workers_ship_telemetry_over_the_pipe(self):
        report = run_cells(_specs(), _config(jobs=2))
        records = report.telemetry_records()
        assert len(records) == 3
        pids = {t["pid"] for t in records}
        assert len(pids) == 2             # jobs warm workers, reused
        assert os.getpid() not in pids
        for telem in records:
            assert telem["max_rss_kib"] > 0
            assert {"cell", "measure"} <= {s["name"]
                                           for s in telem["spans"]}

    def test_merged_trace_has_one_track_per_worker(self):
        report = run_cells(_specs(), _config(jobs=2))
        trace = report.trace()
        assert validate_trace(trace) == []
        named = _process_names(trace)
        worker_pids = {t["pid"] for t in report.telemetry_records()}
        assert worker_pids <= named
        assert len(named) == len(worker_pids) + 1   # + parent track
        assert trace["otherData"]["processes"] == len(named)

    def test_worker_tracks_count_the_cells_they_ran(self):
        report = run_cells(_specs(), _config(jobs=2))
        labels = {ev["pid"]: ev["args"]["name"]
                  for ev in report.trace()["traceEvents"]
                  if ev.get("ph") == "M" and ev.get("name") == "process_name"}
        counts = {}
        for telem in report.telemetry_records():
            counts[telem["pid"]] = counts.get(telem["pid"], 0) + 1
        assert sorted(counts.values()) == [1, 2]
        for pid, n in counts.items():
            assert labels[pid] == f"worker {pid} ({n} cell{'s' * (n > 1)})"

    def test_parent_spans_include_spawn_and_reap(self):
        report = run_cells(_specs()[:1], _config(jobs=2))
        names = {s["name"] for s in report.parent_spans}
        assert {"run_cells", "attempt", "spawn", "reap"} <= names


class TestDeterministicMerge:
    def test_merge_is_order_invariant(self):
        report = run_cells(_specs(), _config())
        snapshots = [t["metrics"] for t in report.telemetry_records()]
        reference = merge_typed_snapshots(snapshots)
        for perm in itertools.permutations(snapshots):
            merged = merge_typed_snapshots(list(perm))
            counters = {k: v for k, v in merged.items()
                        if v["kind"] == "counter"}
            hists = {k: v for k, v in merged.items()
                     if v["kind"] == "histogram"}
            assert counters == {k: v for k, v in reference.items()
                                if v["kind"] == "counter"}
            assert hists == {k: v for k, v in reference.items()
                             if v["kind"] == "histogram"}

    def test_report_merge_ignores_outcome_order(self):
        report = run_cells(_specs(), _config())
        merged = report.merged_metrics()
        shuffled = type(report)(list(reversed(report.outcomes)))
        assert shuffled.merged_metrics() == merged

    def test_inline_and_isolated_agree(self):
        inline = run_cells(_specs(), _config()).merged_metrics()
        isolated = run_cells(_specs(), _config(jobs=2)).merged_metrics()
        assert inline == isolated


class TestJournalTransport:
    def test_journal_records_carry_telemetry(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells(_specs(), _config(jobs=2, journal=str(journal)))
        cells = [json.loads(line)
                 for line in journal.read_text().splitlines()
                 if json.loads(line).get("event") == "cell"]
        assert len(cells) == 3
        for record in cells:
            telem = record["telemetry"]
            assert telem["cpu_s"] >= 0.0
            assert telem["metrics"]
            assert telem["spans"]

    def test_resumed_report_matches_fresh_aggregates(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        fresh = run_cells(_specs(),
                          _config(jobs=2, journal=str(journal)))
        resumed = run_cells(_specs(),
                            _config(jobs=2, journal=str(journal),
                                    resume=True))
        assert resumed.cached_count == 3
        assert resumed.attempted_count == 0
        assert resumed.merged_metrics() == fresh.merged_metrics()
        resources = resumed.resources()
        assert resources["cells"] == 3
        assert resources["pids"] == fresh.resources()["pids"]
        assert validate_trace(resumed.trace()) == []


class TestResourceSummary:
    def test_totals(self):
        report = run_cells(_specs(), _config())
        res = report.resources()
        assert res["cells"] == 3
        assert res["cpu_s"] > 0.0
        assert res["max_rss_kib"] > 0
        assert res["pids"]                # at least the parent pid

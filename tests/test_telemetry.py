"""Cross-process telemetry: worker capture, pipe/journal transport, and
the deterministic parent-side merge."""

import itertools
import json
import os
from dataclasses import replace

import pytest

from repro.exec import (
    ExecConfig,
    RunSpec,
    TelemetryConfig,
    run_cells,
)
from repro.harness.runner import technique
from repro.obs import merge_typed_snapshots, typed_to_plain, validate_trace
from repro.obs.probes import ProbeBus

TINY = [("Camel", "svr16"), ("Camel", "inorder"), ("Randacc", "svr16")]
PHASES = ("build", "warmup", "measure")


def _specs():
    return [RunSpec.make(w, t, scale="tiny") for w, t in TINY]


def _config(**kw):
    kw.setdefault("telemetry", TelemetryConfig())
    kw.setdefault("bus", ProbeBus())      # keep the default bus quiet
    return ExecConfig(**kw)


def _assert_phase_spans(telem):
    """Exactly the four phase spans, each phase inside the cell span."""
    spans = {s["name"]: s for s in telem["spans"]}
    assert len(telem["spans"]) == 4
    assert set(spans) == {"cell", *PHASES}
    cell = spans["cell"]
    for name in PHASES:
        assert (cell["start"] <= spans[name]["start"]
                <= spans[name]["end"] <= cell["end"])


def _process_names(trace):
    return {ev["pid"] for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"}


class TestTelemetryConfig:
    def test_off_by_default(self):
        assert ExecConfig().telemetry is None


class TestInlineCapture:
    def test_payload_shape(self):
        report = run_cells(_specs(), _config())
        records = report.telemetry_records()
        assert len(records) == 3
        for telem in records:
            assert telem["v"] == 2
            assert telem["status"] == "ok"
            assert telem["cpu_s"] >= 0.0
            assert telem["max_rss_kib"] > 0
            _assert_phase_spans(telem)
            assert not {"profile", "measure_wall", "spans_dropped"} & set(
                telem)
            assert set(telem["measure_cycles"]) == {"start", "end"}
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


class TestWindowCounters:
    @pytest.mark.parametrize("isolated", [False, True],
                             ids=["inline", "worker"])
    def test_watchdog_trip_ships_the_counters_it_reached(self, isolated):
        """A window that ends in an exception still reports the counters
        it reached: the stats are read when the window closes, and it
        closes on the way out of the exception too."""
        tech = technique("svr16")
        tech = replace(tech, core_config=replace(
            tech.core_config, watchdog_max_cycles=4000.0))
        spec = RunSpec.make("Camel", tech, scale="tiny")
        extra = {"jobs": 1, "timeout_s": 60.0} if isolated else {}
        (outcome,) = run_cells([spec], _config(retries=0, **extra)).outcomes
        assert outcome.status == "failed"
        metrics = typed_to_plain(outcome.telemetry["metrics"])
        assert metrics["core.watchdog_trips"] == 1
        assert {name: metrics[name] for name in (
            "core.instructions", "mem.loads", "dram.accesses",
            "svr.prm.rounds", "svr.svi.lanes")} == {
            "core.instructions": 158, "mem.loads": 37,
            "dram.accesses": 17, "svr.prm.rounds": 1,
            "svr.svi.lanes": 64}


class TestTraceTail:
    def test_capture_ships_the_window_tail_rebased_onto_measure(self):
        from conftest import build_gather_workload, make_inorder
        from repro.exec.telemetry import (
            TRACE_TAIL,
            CellCapture,
            _rebase_sim_events,
        )

        capture = CellCapture(TelemetryConfig(), _specs()[0], attempt=1)
        core, _, _ = make_inorder(*build_gather_workload())
        core.stats.start_cycle, core.stats.end_cycle = 1_000.0, 10_000.0
        capture.obs.begin_measure(core)
        svi = capture.obs.bus.probe("svr.svi")
        for i in range(9_000):
            svi.emit(pc=4, time=1_000.0 + i, lanes=1)
        capture.obs.end_measure()
        payload = capture.snapshot("ok")

        events = payload["trace_events"]
        assert TRACE_TAIL == len(events) == 128
        assert [ev["ts"] for ev in events] == [
            1_000.0 + i for i in range(9_000 - 128, 9_000)]
        assert payload["trace_dropped"] == 9_000 - 128
        cycles = payload["measure_cycles"]
        assert cycles == {"start": 1_000.0, "end": 10_000.0}
        # Each event lands at the fraction of the measure slice that its
        # cycle is of the window.
        wall = {"start": 50.0, "end": 50.5}
        rebased = _rebase_sim_events(events, wall, cycles)
        assert len(rebased) == len(events)
        for moved, raw in zip(rebased, events):
            assert (moved["ts"] - 50.0e6) / 0.5e6 == pytest.approx(
                (raw["ts"] - 1_000.0) / 9_000.0)

    def test_open_prm_episode_ships_as_a_window_end_slice(self):
        """A PRM episode still open when the measured window closes ships
        as one ``PRM (open)`` slice, as ``repro run --chrome-trace``
        draws it, and the tail stays bounded."""
        from repro.exec.telemetry import TRACE_TAIL

        spec = RunSpec.make("BC_LJN", "svr16", scale="tiny")
        (telem,) = run_cells([spec], _config()).telemetry_records()
        events = telem["trace_events"]
        assert len(events) <= TRACE_TAIL
        opened = [ev for ev in events if ev["name"] == "PRM (open)"]
        assert len(opened) == 1
        assert opened[0]["args"]["cause"] == "window-end"


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
            assert telem["v"] == 2
            _assert_phase_spans(telem)

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

    def test_version_1_journal_resumes_and_renders(self, tmp_path, capsys):
        """A journal written before the one phase timer (telemetry v1:
        a cycle-clock ``prm`` span per PRM episode, ``measure_wall``,
        ``profile`` and ``spans_dropped``) still resumes, merges into a
        valid trace without drawing the cycle-clock spans, and renders
        in ``repro report``."""
        from repro.__main__ import main

        journal = tmp_path / "journal.jsonl"
        spec = _specs()[0]
        run_cells([spec], _config(journal=str(journal)))
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        (cell,) = [r for r in records if r.get("event") == "cell"]
        cell["telemetry"] = _as_version_1(cell["telemetry"])
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))

        resumed = run_cells([spec], _config(journal=str(journal),
                                            resume=True))
        assert resumed.cached_count == 1 and resumed.attempted_count == 0
        trace = resumed.trace()
        assert validate_trace(trace) == []
        pid = cell["telemetry"]["pid"]
        slices = [ev["name"] for ev in trace["traceEvents"]
                  if ev.get("cat") == "span" and ev["pid"] == pid]
        assert slices.count("measure") == 1
        assert "prm" not in slices

        assert main(["report", "--journal", str(journal),
                     "-o", str(tmp_path / "r.html"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["key"] for c in data["cells"]] == [spec.key]
        assert data["metrics"] == json.loads(json.dumps(
            resumed.merged_metrics()))


def _as_version_1(telem):
    """*telem* in the shape the version-1 capture wrote: span ids and
    clocks, a cycle-clock ``prm`` span inside the measured window, the
    window's wall bounds, the per-phase profile and the drop count."""
    spans = [dict(s, id=i + 1, clock="wall")
             for i, s in enumerate(telem["spans"])]
    measure = next(s for s in spans if s["name"] == "measure")
    cycles = telem["measure_cycles"]
    spans.insert(0, {"name": "prm", "id": len(spans) + 1,
                     "parent": measure["id"], "clock": "cycles",
                     "start": cycles["start"] + 10.0,
                     "end": cycles["start"] + 50.0, "status": "ok",
                     "attrs": {"cause": "hslr", "pc": 4, "length": 16}})
    return dict(telem, v=1, spans=spans, spans_dropped=0,
                measure_wall={"start": measure["start"],
                              "end": measure["end"]},
                profile={s["name"]: round(s["end"] - s["start"], 6)
                         for s in spans if s["name"] in PHASES})


class TestResourceSummary:
    def test_totals(self):
        report = run_cells(_specs(), _config())
        res = report.resources()
        assert res["cells"] == 3
        assert res["cpu_s"] > 0.0
        assert res["max_rss_kib"] > 0
        assert res["pids"]                # at least the parent pid

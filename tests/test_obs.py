"""Tests for the observability layer: probe bus, metrics registry,
structured run logs and the Chrome trace exporter."""

import json

import pytest

from repro.exec import RunJournal
from repro.harness.runner import run, technique
from repro.obs import (
    ChromeTraceBuilder,
    Histogram,
    MetricsRegistry,
    ProbeBus,
    RunLog,
    RunObservation,
    SelfProfile,
    install_exec_metrics,
    install_standard_metrics,
    make_record,
    validate_trace,
)


class TestProbeBus:
    def test_probe_disabled_without_subscribers(self):
        bus = ProbeBus()
        probe = bus.probe("core.commit")
        assert probe.enabled is False

    def test_probe_is_get_or_create(self):
        bus = ProbeBus()
        assert bus.probe("x") is bus.probe("x")

    def test_subscriber_receives_name_and_event(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("mem.load", lambda name, ev: seen.append((name, ev)))
        probe = bus.probe("mem.load")
        assert probe.enabled
        probe.emit(addr=64, level="l1")
        assert seen == [("mem.load", {"addr": 64, "level": "l1"})]

    def test_cancel_disables_probe(self):
        bus = ProbeBus()
        sub = bus.subscribe("a.b", lambda *_: None)
        assert bus.probe("a.b").enabled
        sub.cancel()
        assert not bus.probe("a.b").enabled
        sub.cancel()               # idempotent

    def test_glob_matches_existing_and_future_probes(self):
        bus = ProbeBus()
        early = bus.probe("svr.prm_enter")
        seen = []
        sub = bus.subscribe("svr.*", lambda name, _ev: seen.append(name))
        late = bus.probe("svr.prm_exit")
        assert early.enabled and late.enabled
        early.emit()
        late.emit()
        assert seen == ["svr.prm_enter", "svr.prm_exit"]
        sub.cancel()
        assert not early.enabled and not late.enabled

    def test_glob_does_not_match_other_families(self):
        bus = ProbeBus()
        bus.subscribe("mem.*", lambda *_: None)
        assert not bus.probe("dram.access").enabled

    def test_second_subscriber_survives_first_cancel(self):
        bus = ProbeBus()
        seen = []
        first = bus.subscribe("p", lambda *_: seen.append("first"))
        bus.subscribe("p", lambda *_: seen.append("second"))
        first.cancel()
        assert bus.probe("p").enabled
        bus.probe("p").emit()
        assert seen == ["second"]

    def test_clear_subscribers(self):
        bus = ProbeBus()
        bus.subscribe("a", lambda *_: None)
        bus.subscribe("b.*", lambda *_: None)
        bus.probe("b.c")
        bus.clear_subscribers()
        assert not bus.probe("a").enabled
        assert not bus.probe("b.c").enabled
        assert not bus.probe("b.d").enabled  # pattern gone too

    def test_names_sorted(self):
        bus = ProbeBus()
        bus.probe("z")
        bus.probe("a")
        assert bus.names() == ["a", "z"]


class TestHistogram:
    @pytest.mark.parametrize("value,bucket", [
        (0.0, 0), (0.5, 0), (1, 1), (1.9, 1), (2, 2), (3, 2),
        (4, 3), (16, 5), (100, 7), (128, 8),
    ])
    def test_bucket_of(self, value, bucket):
        assert Histogram.bucket_of(value) == bucket

    def test_bucket_labels(self):
        assert Histogram.bucket_label(0) == "[0,1)"
        assert Histogram.bucket_label(1) == "[1,2)"
        assert Histogram.bucket_label(5) == "[16,32)"

    def test_snapshot(self):
        hist = Histogram()
        for value in (1, 2, 3, 100):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1 and snap["max"] == 100
        assert snap["mean"] == pytest.approx(26.5)
        assert snap["buckets"] == {"[1,2)": 1, "[2,4)": 2, "[64,128)": 1}

    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["mean"] == 0.0

    def test_bucket_of_zero_and_sub_one(self):
        assert Histogram.bucket_of(0) == 0
        assert Histogram.bucket_of(0.0) == 0
        assert Histogram.bucket_of(1e-9) == 0
        assert Histogram.bucket_of(0.999) == 0
        assert Histogram.bucket_label(0) == "[0,1)"

    def test_bucket_of_very_large_values(self):
        assert Histogram.bucket_of(2 ** 40) == 41
        assert Histogram.bucket_of(2 ** 40 - 1) == 40
        assert Histogram.bucket_of(1.5e15) == 51
        assert Histogram.bucket_label(41) == f"[{2 ** 40},{2 ** 41})"

    def test_observe_extremes_round_trip(self):
        hist = Histogram()
        hist.observe(0)
        hist.observe(0.25)
        hist.observe(2 ** 40)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0 and snap["max"] == 2 ** 40
        assert snap["buckets"] == {"[0,1)": 2,
                                   f"[{2 ** 40},{2 ** 41})": 1}

    def test_mean_of_empty_histogram(self):
        assert Histogram().mean == 0.0


class TestMetricsRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        assert reg.counter("a").value == 3
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc()
        reg.gauge("m.level").set(2.5)
        reg.histogram("a.hist").observe(4)
        snap = reg.snapshot()
        assert list(snap) == ["a.hist", "m.level", "z.count"]
        assert snap["z.count"] == 1
        assert snap["m.level"] == 2.5
        assert snap["a.hist"]["count"] == 1
        json.dumps(snap)           # JSON-ready


class TestStandardMetrics:
    def test_wiring_from_synthetic_events(self):
        """Events feed the histograms; the counters a stats object keeps
        are read off it at window close, never counted from events."""
        bus = ProbeBus()
        reg = MetricsRegistry()
        subs = install_standard_metrics(bus, reg)
        bus.probe("core.commit").emit(pc=0, op="ld", opclass="LOAD",
                                      issue=0.0, completion=2.0, level="l1")
        bus.probe("mem.load").emit(addr=0, pc=0, time=0.0, level="dram",
                                   completion=104.0, latency=104.0)
        bus.probe("svr.prm_enter").emit(pc=4, time=10.0, length=16,
                                        stride=8, addr=0)
        bus.probe("svr.prm_exit").emit(cause="hslr", time=40.0,
                                       duration=30.0, instructions=10, pc=4)
        bus.probe("svr.svi").emit(pc=4, time=12.0, lanes=16)
        snap = reg.snapshot()
        assert snap["mem.load.latency"]["buckets"] == {"[64,128)": 1}
        assert snap["svr.prm.vector_length"]["buckets"] == {"[16,32)": 1}
        assert snap["svr.prm.duration_cycles"]["buckets"] == {"[16,32)": 1}
        assert snap["svr.svi.group_lanes"]["buckets"] == {"[16,32)": 1}
        for name in ("core.instructions", "mem.loads", "mem.loads.dram",
                     "svr.prm.rounds", "svr.prm.terminations.hslr",
                     "svr.svi.lanes"):
            assert name not in snap
        assert not bus.probe("core.commit").enabled
        for sub in subs:
            sub.cancel()
        assert not bus.probe("mem.load").enabled

    def test_exec_cell_counters(self):
        bus = ProbeBus()
        reg = MetricsRegistry()
        install_exec_metrics(bus, reg)
        cell = bus.probe("exec.cell")
        cell.emit(key="k1", workload="Camel", technique="svr16",
                  status="ok", cached=False, attempts=1, elapsed_s=1.5)
        cell.emit(key="k2", workload="Camel", technique="svr16",
                  status="ok", cached=True, attempts=1, elapsed_s=0.0)
        snap = reg.snapshot()
        assert snap["exec.cells"] == 2
        assert snap["exec.cells.cached"] == 1
        # Only the actually-executed cell lands in the latency histogram.
        assert snap["exec.cell.elapsed_s"]["count"] == 1
        assert snap["exec.cell.elapsed_s"]["buckets"] == {"[1,2)": 1}

    def test_exec_failure_retry_timeout_counters(self):
        bus = ProbeBus()
        reg = MetricsRegistry()
        install_exec_metrics(bus, reg)
        bus.probe("exec.failure").emit(
            key="k", workload="Camel", technique="svr16", kind="hang",
            message="timeout", attempts=2)
        bus.probe("exec.failure").emit(
            key="k2", workload="HJ2", technique="svr16", kind="crash",
            message="boom", attempts=1)
        bus.probe("exec.retry").emit(key="k", workload="Camel",
                                     technique="svr16", attempt=1,
                                     kind="hang", delay_s=0.25)
        bus.probe("exec.timeout").emit(key="k", workload="Camel",
                                       technique="svr16", attempt=1,
                                       timeout_s=30.0)
        snap = reg.snapshot()
        assert snap["exec.failures"] == 2
        assert snap["exec.failures.hang"] == 1
        assert snap["exec.failures.crash"] == 1
        assert snap["exec.retries"] == 1
        assert snap["exec.timeouts"] == 1

    def test_watchdog_trip_counters(self):
        bus = ProbeBus()
        reg = MetricsRegistry()
        install_standard_metrics(bus, reg)
        bus.probe("core.watchdog").emit(kind="cycles", cycle=1e9, pc=4)
        bus.probe("core.watchdog").emit(kind="cycles", cycle=2e9, pc=8)
        bus.probe("core.watchdog").emit(kind="instructions", cycle=5.0,
                                        pc=12)
        snap = reg.snapshot()
        assert snap["core.watchdog_trips"] == 3
        assert snap["core.watchdog_trips.cycles"] == 2
        assert snap["core.watchdog_trips.instructions"] == 1


def _simulator_on(bus, tech_name, workload="Camel"):
    """Every simulator component *tech_name* builds, on *bus*."""
    from repro.cores.inorder import InOrderCore
    from repro.cores.ooo import OutOfOrderCore
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.svr.unit import ScalarVectorUnit
    from repro.svr.vr import VectorRunaheadUnit
    from repro.workloads.registry import build_workload

    tech = technique(tech_name)
    w = build_workload(workload, "tiny")
    hierarchy = MemoryHierarchy(w.memory, tech.memory, bus=bus)
    if tech.core == "ooo":
        vr = (VectorRunaheadUnit(tech.vr_length)
              if tech.vr_length is not None else None)
        return OutOfOrderCore(w.program, w.memory, hierarchy,
                              tech.core_config, vr=vr, bus=bus)
    svr = (ScalarVectorUnit(tech.svr, bus=bus)
           if tech.svr is not None else None)
    return InOrderCore(w.program, w.memory, hierarchy, tech.core_config,
                       svr=svr, bus=bus)


class TestOneCountingPath:
    def test_events_never_count_what_stats_keep(self):
        """No name an event subscriber writes is also read off a stats
        object, over windows that exercise SVR, IMP and the OoO core."""
        from repro.obs.metrics import read_stats_counters

        for tech_name in ("svr16", "imp", "vr"):
            bus = ProbeBus()
            from_events = MetricsRegistry()
            install_standard_metrics(bus, from_events)
            core = _simulator_on(bus, tech_name)
            core.run(3000)
            from_stats = MetricsRegistry()
            read_stats_counters(from_stats, core)
            events, stats = from_events.snapshot(), from_stats.snapshot()
            assert stats["core.instructions"] == 3000
            assert events["mem.load.latency"]["count"] == stats["mem.loads"]
            assert not set(events) & set(stats), tech_name

    def test_counters_keep_window_scope(self):
        """The TLB walk and accuracy-ban counts, lifetime counts in their
        components, reset with the window's stats: every counter covers
        the measured window only."""
        from repro.svr.config import SVRConfig
        from repro.svr.unit import ScalarVectorUnit

        obs = RunObservation()
        run("xz", technique("ooo"), scale="tiny", obs=obs)
        snap = obs.metrics_snapshot()
        assert snap["tlb.walks"] == snap["tlb.walk.latency"]["count"] > 0
        unit = ScalarVectorUnit(SVRConfig())
        unit.monitor.bans = 2
        unit.reset_stats()
        assert unit.monitor.bans == 0

    def test_every_simulator_probe_has_a_subscriber(self, monkeypatch):
        """A probe the simulator creates must feed something in ``src/``:
        the metrics, the Chrome trace or ``repro trace``."""
        from repro.harness import trace as ascii_trace

        class RecordingBus(ProbeBus):
            def __init__(self):
                super().__init__()
                self.patterns = set()

            def subscribe(self, pattern, fn):
                self.patterns.add(pattern)
                return super().subscribe(pattern, fn)

        subscribed = RecordingBus()
        install_standard_metrics(subscribed, MetricsRegistry())
        ChromeTraceBuilder().attach(subscribed)
        monkeypatch.setattr(ascii_trace, "ProbeBus", lambda: subscribed)
        ascii_trace.capture("Camel", "svr16", warmup=10, count=10)

        created = ProbeBus()
        for tech_name in ("svr16", "imp", "vr", "ooo"):
            _simulator_on(created, tech_name)
        names = set(created.names()) | {"core.watchdog"}
        assert {"core.commit", "mem.load", "svr.svi"} <= names
        assert names - subscribed.patterns == set()


class TestRunLog:
    def test_round_trip(self, tmp_path):
        log = RunLog(tmp_path / "nested" / "session.jsonl")
        log.append(make_record("run", workload="Camel", cpi=1.9))
        log.append(make_record("figure", name="fig1"))
        records = RunJournal(log.path).records()
        assert len(records) == 2
        assert records[0]["schema"] == 2
        assert records[0]["kind"] == "run"
        assert records[0]["workload"] == "Camel"
        assert records[1]["name"] == "fig1"
        assert "timestamp" in records[0]

    def test_read_missing_file(self, tmp_path):
        assert RunJournal(tmp_path / "absent.jsonl").records() == []

    def test_timestamps_are_utc_with_fractional_seconds(self):
        import re
        import time

        before = time.gmtime(time.time() - 2)
        record = make_record("run")
        stamp = record["timestamp"]
        # Explicit Z suffix, never a local offset; microsecond digits so
        # same-second records stay distinguishable.
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6}Z", stamp)
        parsed = time.strptime(stamp.split(".")[0] + "Z",
                               "%Y-%m-%dT%H:%M:%SZ")
        assert time.mktime(parsed) >= time.mktime(before)

    def test_records_carry_seq_and_pid(self):
        import os

        a = make_record("run")
        b = make_record("run")
        assert b["seq"] == a["seq"] + 1
        assert a["pid"] == os.getpid()

    def test_append_holds_one_open_handle(self, tmp_path):
        log = RunLog(tmp_path / "session.jsonl")
        log.append(make_record("run", n=1))
        handle = log._fh
        assert handle is not None and not handle.closed
        log.append(make_record("run", n=2))
        assert log._fh is handle          # reused, not reopened
        log.close()
        assert handle.closed
        # Appending after close transparently reopens.
        log.append(make_record("run", n=3))
        log.close()
        assert len(RunJournal(log.path).records()) == 3

    def test_context_manager_closes(self, tmp_path):
        with RunLog(tmp_path / "session.jsonl") as log:
            log.append(make_record("run"))
            handle = log._fh
        assert handle.closed

    def test_read_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "session.jsonl"
        log = RunLog(path)
        log.append(make_record("run", n=1))
        log.append(make_record("run", n=2))
        log.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"schema": 2, "kind": "ru')   # killed mid-append
        records = RunJournal(path).records()
        assert [r["n"] for r in records] == [1, 2]


class TestSelfProfile:
    def test_sections_accumulate(self):
        profile = SelfProfile()
        with profile.section("measure"):
            pass
        with profile.section("measure"):
            pass
        with profile.section("build"):
            pass
        snap = profile.snapshot()
        assert list(snap) == ["build", "measure"]
        assert all(v >= 0.0 for v in snap.values())
        # Each section is recorded once, as a span; the snapshot sums.
        assert [s["name"] for s in profile.spans] == [
            "measure", "measure", "build"]
        measure = sum(s["end"] - s["start"] for s in profile.spans
                      if s["name"] == "measure")
        assert snap["measure"] == round(measure, 6)


class TestChromeTrace:
    def _emit_episode(self, bus):
        bus.probe("svr.prm_enter").emit(pc=4, time=100.0, length=16,
                                        stride=8, addr=0)
        bus.probe("svr.svi").emit(pc=4, time=105.0, lanes=16)
        bus.probe("dram.access").emit(time=106.0, start=106.0,
                                      completion=196.0)
        bus.probe("svr.prm_exit").emit(cause="hslr", time=130.0,
                                       duration=30.0, instructions=10, pc=4)

    def test_episode_becomes_complete_slice(self):
        bus = ProbeBus()
        builder = ChromeTraceBuilder()
        builder.attach(bus)
        self._emit_episode(bus)
        builder.detach()
        trace = builder.to_dict()
        assert validate_trace(trace) == []
        slices = [ev for ev in trace["traceEvents"]
                  if ev.get("ph") == "X" and ev.get("cat") == "svr"]
        assert len(slices) == 1
        assert slices[0]["name"] == "PRM (hslr)"
        assert slices[0]["ts"] == 100.0
        assert slices[0]["dur"] == 30.0
        asyncs = [ev for ev in trace["traceEvents"]
                  if ev.get("ph") in ("b", "e")]
        assert len(asyncs) == 2
        assert asyncs[0]["id"] == asyncs[1]["id"]

    def test_open_episode_flushed_at_window_end(self):
        bus = ProbeBus()
        builder = ChromeTraceBuilder()
        builder.attach(bus)
        bus.probe("svr.prm_enter").emit(pc=4, time=50.0, length=8,
                                        stride=4, addr=0)
        bus.probe("dram.access").emit(time=60.0, start=60.0,
                                      completion=150.0)
        builder.detach()
        trace = builder.to_dict()
        assert validate_trace(trace) == []
        open_slices = [ev for ev in trace["traceEvents"]
                       if ev.get("name") == "PRM (open)"]
        assert len(open_slices) == 1
        assert open_slices[0]["args"]["cause"] == "window-end"

    def test_orphan_exit_dropped(self):
        bus = ProbeBus()
        builder = ChromeTraceBuilder()
        builder.attach(bus)
        bus.probe("svr.prm_exit").emit(cause="hslr", time=10.0,
                                       duration=5.0, instructions=3, pc=0)
        builder.detach()
        assert builder.events == []

    def test_max_events_drops_not_grows(self):
        bus = ProbeBus()
        builder = ChromeTraceBuilder(max_events=4)
        builder.attach(bus)
        for i in range(8):
            bus.probe("dram.access").emit(time=float(i), start=float(i),
                                          completion=float(i) + 90.0)
        builder.detach()
        assert len(builder.events) == 4
        assert builder.dropped == 12
        assert builder.to_dict()["otherData"]["dropped_events"] == 12

    def test_write_creates_valid_json(self, tmp_path):
        bus = ProbeBus()
        builder = ChromeTraceBuilder()
        builder.attach(bus)
        self._emit_episode(bus)
        bus.probe("mem.load").emit(level="dram", time=110.0,
                                   completion=200.0, addr=64, pc=5)
        builder.detach()
        path = builder.write(tmp_path / "out" / "trace.json")
        trace = json.loads(path.read_text())
        assert validate_trace(trace) == []
        tracks = {ev["tid"]: ev["args"]["name"]
                  for ev in trace["traceEvents"]
                  if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert set(tracks.values()) == {"svr", "memory", "dram"}
        # Every named track carries at least one event.
        busy = {ev["tid"] for ev in trace["traceEvents"] if ev["ph"] != "M"}
        assert set(tracks) <= busy

    def test_validate_trace_flags_malformed(self):
        assert validate_trace({}) == ["traceEvents is not a list"]
        bad = {"traceEvents": [
            {"ph": "Z", "pid": 1},                       # bad phase
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0},  # X without dur
            {"ph": "b", "pid": 1, "tid": 1, "ts": 0.0},  # async without id
            {"ph": "i", "tid": 1, "ts": 0.0},            # missing pid
        ]}
        problems = validate_trace(bad)
        assert len(problems) == 4


class TestMultiprocessTrace:
    def _event(self, ts, pid=1, tid=1, name="work"):
        return {"name": name, "cat": "span", "ph": "X", "ts": ts,
                "dur": 1.0, "pid": pid, "tid": tid}

    def test_one_process_track_per_pid(self):
        from repro.obs import build_multiprocess_trace

        trace = build_multiprocess_trace([
            {"pid": 100, "label": "worker A",
             "events": [self._event(50.0, pid=100)]},
            {"pid": 200, "label": "worker B",
             "events": [self._event(80.0, pid=200)]},
        ])
        assert validate_trace(trace) == []
        names = {ev["pid"]: ev["args"]["name"]
                 for ev in trace["traceEvents"]
                 if ev.get("ph") == "M"
                 and ev.get("name") == "process_name"}
        assert names == {100: "worker A", 200: "worker B"}
        assert trace["otherData"]["processes"] == 2
        # Timestamps origin-shifted so the earliest event starts at 0.
        slices = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert min(ev["ts"] for ev in slices) == 0.0

    def test_same_pid_entries_fold_into_one_track(self):
        from repro.obs import build_multiprocess_trace

        trace = build_multiprocess_trace([
            {"pid": 7, "label": "cell 1", "events": [self._event(1.0,
                                                                 pid=7)]},
            {"pid": 7, "label": "cell 2", "events": [self._event(2.0,
                                                                 pid=7)]},
        ])
        assert trace["otherData"]["processes"] == 1
        process_meta = [ev for ev in trace["traceEvents"]
                        if ev.get("ph") == "M"
                        and ev.get("name") == "process_name"]
        assert len(process_meta) == 1

    def test_validate_flags_unnamed_pid_when_metadata_present(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "worker"}},
            self._event(0.0, pid=1),
            self._event(1.0, pid=2),     # events but no process_name
        ]}
        problems = validate_trace(trace)
        assert any("pid 2" in p and "process_name" in p
                   for p in problems)

    def test_validate_flags_unnamed_track_in_multi_pid_trace(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "a"}},
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "b"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "t"}},
            self._event(0.0, pid=1, tid=1),
            self._event(1.0, pid=2, tid=9),   # unnamed (2, 9) track
        ]}
        problems = validate_trace(trace)
        assert any("tid=9" in p and "thread_name" in p
                   for p in problems)

    def test_single_pid_trace_needs_no_thread_names(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "only"}},
            self._event(0.0, pid=1, tid=3),
        ]}
        assert validate_trace(trace) == []

    def test_metadata_free_trace_skips_naming_checks(self):
        trace = {"traceEvents": [self._event(0.0, pid=1),
                                 self._event(1.0, pid=2)]}
        assert validate_trace(trace) == []

    def test_write_trace_round_trips(self, tmp_path):
        from repro.obs import build_multiprocess_trace, write_trace

        trace = build_multiprocess_trace(
            [{"pid": 5, "label": "w", "events": [self._event(3.0,
                                                             pid=5)]}])
        path = write_trace(trace, tmp_path / "deep" / "trace.json")
        assert json.loads(path.read_text()) == trace


class TestRunObservation:
    def test_counters_match_sim_result(self):
        obs = RunObservation()
        result = run("Camel", technique("svr16"), scale="tiny", obs=obs)
        snap = obs.metrics_snapshot()
        assert snap["core.instructions"] == result.core.instructions
        assert snap["dram.accesses"] == result.dram_lines
        assert snap["svr.prm.rounds"] == result.svr.prm_rounds
        assert snap["svr.svi.lanes"] == result.svr.svi_lanes
        assert (snap["mem.loads.dram"] + snap["mem.loads.l1"]
                + snap.get("mem.loads.l2", 0)) == snap["mem.loads"]

    def test_warmup_stays_unobserved(self):
        obs = RunObservation()
        run("Camel", technique("inorder"), scale="tiny", warmup=1000,
            measure=500, obs=obs)
        assert obs.metrics_snapshot()["core.instructions"] == 500

    def test_trace_and_record(self, tmp_path):
        trace_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "log.jsonl"
        obs = RunObservation(chrome_trace=str(trace_path),
                             jsonl=str(jsonl_path))
        run("Camel", technique("svr16"), scale="tiny", obs=obs)
        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        assert any(ev.get("ph") == "X" and ev.get("cat") == "svr"
                   for ev in trace["traceEvents"])
        records = RunJournal(jsonl_path).records()
        assert len(records) == 1
        assert records[0] == json.loads(json.dumps(obs.record, default=str))
        assert records[0]["result"]["workload"] == "Camel"
        assert records[0]["config"]["svr"]["vector_length"] == 16
        assert set(records[0]["profile"]) >= {"build", "warmup", "measure"}

    def test_observed_run_matches_unobserved(self):
        plain = run("Camel", technique("svr16"), scale="tiny")
        observed = run("Camel", technique("svr16"), scale="tiny",
                       obs=RunObservation())
        assert observed.core.cycles == plain.core.cycles
        assert observed.dram_lines == plain.dram_lines
        assert observed.svr.svi_lanes == plain.svr.svi_lanes


class TestCliObs:
    def test_run_json(self, capsys):
        from repro.__main__ import main

        assert main(["run", "Camel", "svr16", "--scale", "tiny",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "Camel"
        assert payload["svr"]["prm_rounds"] > 0

    def test_run_chrome_trace_and_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "r.jsonl"
        assert main(["run", "Camel", "svr16", "--scale", "tiny",
                     "--chrome-trace", str(trace_path),
                     "--jsonl", str(jsonl_path)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        assert any(ev.get("cat") == "svr" and ev.get("ph") == "X"
                   for ev in trace["traceEvents"])
        assert len(RunJournal(jsonl_path).records()) == 1

    def test_stats_command(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "Camel", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "core.instructions" in out
        assert "svr.prm.vector_length" in out
        assert "wall-clock self-profile" in out

    def test_stats_json(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "Camel", "inorder", "--scale", "tiny",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "run"
        assert record["metrics"]["core.instructions"] > 0

    def test_figure_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main

        jsonl_path = tmp_path / "fig.jsonl"
        assert main(["figure", "table2", "--jsonl", str(jsonl_path)]) == 0
        capsys.readouterr()
        records = RunJournal(jsonl_path).records()
        assert len(records) == 1
        assert records[0]["kind"] == "figure"
        assert records[0]["name"] == "table2"

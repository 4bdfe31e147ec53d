"""The live observability plane: progress frames from the core run
loop up through the serve worker pool, long-polling, event streaming
and Prometheus exposition.

Unit layers use fakes (a fake core, a manual clock); the HTTP layers
run a real ReproServer on an ephemeral port, mirroring
``test_serve_http``.  The invariants that matter:

* a run that reports progress computes exactly what one without does;
* frames advance monotonically in simulated time;
* a long-poll timeout is a 200 with the current state, never an error;
* a client vanishing mid-``/events`` stream leaves the scheduler (and
  every later request) healthy.
"""

from __future__ import annotations

import socket
import threading
import time
import urllib.request

import pytest

from repro.exec import RunSpec
from repro.exec.executor import WorkerPool
from repro.obs import progress as progress_module
from repro.obs.metrics import (
    MetricsRegistry,
    prometheus_exposition,
    prometheus_name,
)
from repro.obs.progress import ProgressReporter, advancing
from repro.serve import EventBroker, JobQueue, MetricsRing
from repro.serve import server as server_module
from repro.serve.queue import RUNNING
from repro.serve.top import (
    frame_eta_s,
    frame_fraction,
    progress_bar,
    render_server_view,
    run_top,
    sparkline,
)

from tests.test_serve_http import client_for, start_server, stop_server


class FakeStats:
    def __init__(self, end_cycle: float, ipc: float = 1.0) -> None:
        self.end_cycle = end_cycle
        self.ipc = ipc


class FakeCore:
    svr = None
    vr = None

    def __init__(self, cycle: float = 0.0, instructions: int = 0,
                 pc: int = 0) -> None:
        self.stats = FakeStats(cycle)
        self.lifetime_instructions = instructions
        self.pc = pc


class ManualClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fast_frames(monkeypatch):
    """Sample every 200 instructions, with no wall-clock floor.  A pool
    forks its workers after this is set, so they inherit it."""
    monkeypatch.setattr(progress_module, "INTERVAL_INSTRUCTIONS", 200)
    monkeypatch.setattr(progress_module, "MIN_INTERVAL_S", 0.0)


# ---------------------------------------------------------------------------
# Reporter unit behaviour.
# ---------------------------------------------------------------------------

class TestProgressReporter:
    def test_frames_carry_sim_state_and_sequence(self):
        clock, frames = ManualClock(), []
        reporter = ProgressReporter(frames.append, clock=clock)
        reporter.annotate(workload="w", technique="t",
                          target_instructions=10_000)
        reporter.set_phase("measure")
        core = FakeCore(cycle=500.0, instructions=2_500, pc=64)
        clock.now += 3.0
        frame = reporter.sample(core)
        assert frame is frames[0]
        assert frame == {"seq": 0, "phase": "measure", "workload": "w",
                         "technique": "t", "cycle": 500.0,
                         "instructions": 2_500,
                         "target_instructions": 10_000, "ipc": 1.0,
                         "pc": 64, "episodes": 0, "wall_s": 3.0}
        assert frame_fraction(frame) == pytest.approx(0.25)

    def test_wall_clock_rate_limit_and_force(self):
        clock, frames = ManualClock(), []
        reporter = ProgressReporter(frames.append, clock=clock)
        core = FakeCore()
        assert reporter.sample(core) is not None
        clock.now += progress_module.MIN_INTERVAL_S / 2
        assert reporter.sample(core) is None      # inside the floor
        assert reporter.sample(core, force=True) is not None
        clock.now += progress_module.MIN_INTERVAL_S * 3
        assert reporter.sample(core) is not None
        assert [f["seq"] for f in frames] == [0, 1, 2]

    def test_finish_emits_done_frame(self):
        frames = []
        reporter = ProgressReporter(frames.append, clock=ManualClock())
        reporter.sample(FakeCore())
        reporter.finish(FakeCore(cycle=9.0))      # forced past the floor
        assert [f["phase"] for f in frames] == ["build", "done"]

    def test_advancing_semantics(self):
        base = {"cycle": 10.0, "instructions": 100}
        assert advancing(base, {"cycle": 11.0, "instructions": 100})
        assert advancing(base, {"cycle": 10.0, "instructions": 101})
        assert not advancing(base, dict(base))
        assert not advancing(base, {"cycle": 9.0, "instructions": 99})
        assert not advancing(None, base)
        assert not advancing(base, None)


# ---------------------------------------------------------------------------
# Core run loops: enabled frames advance; disabled path is identical.
# ---------------------------------------------------------------------------

class TestCoreProgress:
    def _run(self, technique: str, progress=None):
        from repro.harness.runner import run

        return run("PR_KR", technique, scale="tiny", progress=progress)

    @pytest.mark.parametrize("technique", ["inorder", "svr16", "vr64"])
    def test_enabled_run_emits_monotonic_frames(self, technique,
                                                fast_frames):
        frames = []
        result = self._run(technique,
                           progress=ProgressReporter(frames.append))
        # A sample between every two 200-instruction chunks of each
        # window, plus the forced measure-start and done frames.
        assert len(frames) >= 5_000 // 200
        cycles = [f["cycle"] for f in frames]
        instructions = [f["instructions"] for f in frames]
        assert cycles == sorted(cycles)
        assert instructions == sorted(instructions)
        assert any(f["phase"] == "measure" for f in frames)
        assert frames[-1]["phase"] == "done"
        assert frames[-1]["target_instructions"] == 5_000
        assert frames[0]["workload"] == "PR_KR"
        assert result.ipc > 0

    def test_disabled_progress_changes_nothing(self, fast_frames):
        baseline = self._run("svr16")
        with_progress = self._run(
            "svr16", progress=ProgressReporter(lambda _f: None))
        assert with_progress.to_dict() == baseline.to_dict()


# ---------------------------------------------------------------------------
# Worker pool integration: frames over the result pipe.
# ---------------------------------------------------------------------------

class TestExecutorProgress:
    def test_isolated_run_reports_progress_frames(self, fast_frames):
        seen = []

        def on_event(event, **fields):
            if event == "progress":
                seen.append(fields)

        spec = RunSpec.make("PR_KR", "svr16", scale="tiny")
        pool = WorkerPool(1, timeout_s=60.0, progress=True,
                          on_event=on_event)
        pool.dispatch(spec, 1)
        try:
            done = []
            while not done:
                done = pool.poll()
        finally:
            pool.stop()
        (completion,) = done
        assert completion.ok
        assert len(seen) >= 3
        assert all(ev["key"] == spec.key and ev["attempt"] == 1
                   for ev in seen)
        frames = [ev["frame"] for ev in seen]
        cycles = [f["cycle"] for f in frames]
        assert cycles == sorted(cycles)
        assert all(f["workload"] == "PR_KR" for f in frames)
        assert frames[-1]["phase"] == "done"


# ---------------------------------------------------------------------------
# Queue: versions, progress notes, long-poll primitive.
# ---------------------------------------------------------------------------

class TestQueueLongPoll:
    def _submitted(self):
        queue = JobQueue(limit=4)
        job = queue.submit(RunSpec.make("PR_KR", "svr16", scale="tiny"))
        return queue, job

    def test_queued_job_reports_wait_so_far(self):
        _queue, job = self._submitted()
        time.sleep(0.01)
        out = job.to_dict()
        assert out["state"] == "queued"
        assert out["wait_s"] > 0
        assert "version" in out

    def test_note_progress_bumps_version_and_attaches_frame(self):
        queue, job = self._submitted()
        before = job.version
        queue.next_cell()
        frame = {"cycle": 10.0, "instructions": 500, "ipc": 0.8}
        updated = queue.note_progress(job.key, frame)
        assert [j.job_id for j in updated] == [job.job_id]
        assert job.progress == frame
        assert job.version > before
        assert job.to_dict()["progress"] == frame
        assert queue.note_progress("no-such-key", frame) == []

    def test_wait_for_change_times_out_with_current_state(self):
        queue, job = self._submitted()
        started = time.monotonic()
        result = queue.wait_for_change(job.job_id, job.version,
                                       timeout_s=0.1)
        assert time.monotonic() - started >= 0.1
        assert result is job and result.state == "queued"

    def test_wait_for_change_wakes_on_state_change(self):
        queue, job = self._submitted()
        woken = {}

        def waiter() -> None:
            woken["job"] = queue.wait_for_change(job.job_id, job.version,
                                                 timeout_s=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        queue.next_cell()                       # queued -> running
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert woken["job"].state == RUNNING

    def test_wait_for_change_unknown_job(self):
        queue, _job = self._submitted()
        assert queue.wait_for_change("job-999", 0, timeout_s=0.0) is None

    def test_stale_version_returns_immediately(self):
        queue, job = self._submitted()
        queue.next_cell()
        started = time.monotonic()
        result = queue.wait_for_change(job.job_id, 0, timeout_s=5.0)
        assert time.monotonic() - started < 1.0
        assert result.state == RUNNING


# ---------------------------------------------------------------------------
# EventBroker / MetricsRing units.
# ---------------------------------------------------------------------------

class TestEventPlumbing:
    def test_publish_stamps_and_fans_out(self):
        broker = EventBroker()
        sub = broker.subscribe()
        broker.publish("job", job_id="job-1", state="queued")
        event = sub.get(timeout_s=1.0)
        assert event["event"] == "job" and event["seq"] == 1
        assert event["job_id"] == "job-1"
        sub.close()
        assert broker.subscriber_count() == 0

    def test_slow_subscriber_drops_oldest(self):
        broker = EventBroker(queue_size=3)
        sub = broker.subscribe()
        for i in range(6):
            broker.publish("tick", n=i)
        assert sub.dropped == 3
        assert [sub.get(0.0)["n"] for _ in range(3)] == [3, 4, 5]

    def test_replay_preseeds_new_subscribers(self):
        broker = EventBroker(replay_size=8)
        for i in range(5):
            broker.publish("tick", n=i)
        sub = broker.subscribe(replay=3)
        assert [sub.get(0.0)["n"] for _ in range(3)] == [2, 3, 4]
        assert sub.get(0.0) is None

    def test_metrics_ring_is_bounded(self):
        ring = MetricsRing(size=4)
        for i in range(10):
            ring.push({"n": i})
        samples = ring.snapshot()
        assert [s["n"] for s in samples] == [6, 7, 8, 9]
        assert [s["n"] for s in ring.snapshot(last=2)] == [8, 9]
        assert len(ring) == 4
        assert all("ts" in s for s in samples)


# ---------------------------------------------------------------------------
# Prometheus exposition.
# ---------------------------------------------------------------------------

class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("serve.request_ms") == "repro_serve_request_ms"
        assert prometheus_name("a-b/c") == "repro_a_b_c"

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(7)
        registry.gauge("exec.inflight").set(3)
        hist = registry.histogram("serve.job_run_s")
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        text = prometheus_exposition(
            registry, extra_gauges={"serve.queue_depth": 2.0})
        lines = text.splitlines()
        assert "# TYPE repro_serve_requests counter" in lines
        assert "repro_serve_requests 7" in lines
        assert "# TYPE repro_exec_inflight gauge" in lines
        assert "repro_exec_inflight 3" in lines
        assert "# TYPE repro_serve_job_run_s histogram" in lines
        assert 'repro_serve_job_run_s_bucket{le="+Inf"} 4' in lines
        assert "repro_serve_job_run_s_count 4" in lines
        assert "repro_serve_queue_depth 2" in lines
        # Cumulative buckets never decrease.
        buckets = [int(line.rsplit(" ", 1)[1]) for line in lines
                   if line.startswith("repro_serve_job_run_s_bucket")]
        assert buckets == sorted(buckets)
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# HTTP end-to-end: long-poll, /events, /metrics negotiation, top.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-live")
    with pytest.MonkeyPatch.context() as patch:
        # Faster cadences than serve's: frames every 200 instructions
        # (workers fork later, inheriting the patch) and a gauge sample
        # every 0.2 s.
        patch.setattr(progress_module, "INTERVAL_INSTRUCTIONS", 200)
        patch.setattr(server_module, "SAMPLE_INTERVAL_S", 0.2)
        server = start_server(tmp, retries=0, timeout_s=60.0,
                              queue_limit=16)
        yield server
        stop_server(server)


class TestLiveHTTP:
    def test_longpoll_sees_progress_then_verdict(self, live_server):
        client = client_for(live_server)
        job = client.submit("HJ2", "svr16", scale="tiny")
        frames = []
        version = None
        for _ in range(100):
            payload = client.job(job["job_id"], wait_s=5.0,
                                 version=version)
            state = payload["job"]["state"]
            if payload["job"].get("progress"):
                frames.append(payload["job"]["progress"])
            if state in ("ok", "failed", "quarantined"):
                break
            version = payload["job"].get("version")
        assert payload["job"]["state"] == "ok"
        distinct = {(f["cycle"], f["instructions"]) for f in frames}
        assert len(distinct) >= 3
        cycles = [f["cycle"] for f in frames]
        assert cycles == sorted(cycles)

    def test_longpoll_timeout_is_200_with_current_state(self, live_server):
        client = client_for(live_server)
        job = client.submit("PR_KR", "svr16", scale="tiny")
        final = client.wait(job["job_id"], timeout_s=60.0)
        # Terminal job: wait is answered immediately with the state.
        payload = client.job(job["job_id"], wait_s=0.05,
                             version=final["job"]["version"])
        assert payload["job"]["state"] == "ok"

    def test_events_stream_delivers_job_lifecycle(self, live_server):
        client = client_for(live_server)
        events = []
        done = threading.Event()

        def consume() -> None:
            for event in client.events(replay=0):
                events.append(event)
                if (event["event"] == "job"
                        and event.get("state") == "ok"
                        and event.get("job_id") == job_box.get("id")):
                    break
            done.set()

        job_box: dict = {}
        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.2)                       # subscribe before submit
        job = client.submit("Camel", "svr16", scale="tiny")
        job_box["id"] = job["job_id"]
        assert done.wait(60.0)
        states = [e.get("state") for e in events
                  if e["event"] == "job"
                  and e.get("job_id") == job["job_id"]]
        assert states[0] == "queued"
        assert "running" in states
        assert states[-1] == "ok"
        assert any(e["event"] == "progress" for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_events_limit_closes_stream(self, live_server):
        client = client_for(live_server)
        events = list(client.events(limit=2, replay=2))
        assert len(events) == 2

    def test_client_disconnect_leaves_server_healthy(self, live_server):
        # Open /events raw, read a little, then slam the socket shut.
        sock = socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=5.0)
        sock.sendall(b"GET /events?replay=5 HTTP/1.1\r\n"
                     b"Host: localhost\r\nAccept: */*\r\n\r\n")
        sock.recv(1024)
        sock.close()
        client = client_for(live_server)
        job = client.submit("PR_KR", "inorder", scale="tiny")
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["job"]["state"] == "ok"
        deadline = time.monotonic() + 5.0
        while (live_server.events.subscriber_count() > 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert live_server.events.subscriber_count() == 0

    def test_metrics_content_negotiation(self, live_server):
        client = client_for(live_server)
        as_json = client.metrics()
        assert isinstance(as_json, dict)          # default stays JSON
        assert "serve.requests" in as_json
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_queue_depth" in text
        # Accept-header negotiation, not just the query param.
        request = urllib.request.Request(
            f"http://127.0.0.1:{live_server.port}/metrics",
            headers={"Accept": "text/plain"})
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            assert "text/plain" in resp.headers["Content-Type"]
            assert b"repro_serve_requests" in resp.read()

    def test_metrics_history_accumulates(self, live_server):
        client = client_for(live_server)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(client.history()) >= 2:
                break
            time.sleep(0.2)
        samples = client.history()
        assert len(samples) >= 2
        assert all("queue_depth" in s and "busy_workers" in s
                   for s in samples)
        assert len(client.history(last=1)) == 1

    def test_worker_snapshot_in_health_carries_progress_key(self,
                                                            live_server):
        health = client_for(live_server).health()
        assert all("progress" in w for w in health["workers"])
        assert "events_published" in health

    def test_top_once_renders_live_server(self, live_server, capsys):
        import io

        out = io.StringIO()
        assert run_top(url=f"http://127.0.0.1:{live_server.port}",
                       once=True, out=out) == 0
        text = out.getvalue()
        assert "repro top" in text and "workers:" in text
        assert "\x1b" not in text                 # --once stays plain


# ---------------------------------------------------------------------------
# repro top rendering units.
# ---------------------------------------------------------------------------

class TestTopRendering:
    def test_progress_bar_and_fraction(self):
        assert progress_bar(0.0, width=4) == "[....]"
        assert progress_bar(0.5, width=4) == "[##..]"
        assert progress_bar(2.0, width=4) == "[####]"
        frame = {"instructions": 250, "target_instructions": 1000}
        assert frame_fraction(frame) == 0.25
        assert frame_fraction({"instructions": 5}) == 0.0

    def test_frame_eta_linear(self):
        frame = {"instructions": 250, "target_instructions": 1000,
                 "wall_s": 10.0}
        assert frame_eta_s(frame) == pytest.approx(30.0)
        assert frame_eta_s({"instructions": 0, "target_instructions": 10,
                            "wall_s": 5.0}) is None

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert len(sparkline([1.0, 2.0, 3.0])) == 3
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_render_server_view_smoke(self):
        frame = {"cycle": 1000.0, "instructions": 500,
                 "target_instructions": 1000, "ipc": 0.75, "wall_s": 2.0}
        health = {"status": "ok", "uptime_s": 12.0, "queue_depth": 1,
                  "inflight": 2, "worker_restarts": 0,
                  "results": 3, "events_published": 9,
                  "workers": [{"worker": 0, "pid": 123, "state": "busy",
                               "jobs_done": 2, "running": "PR_KR/svr16",
                               "progress": frame}]}
        jobs = [{"job_id": "job-1", "workload": "PR_KR",
                 "technique": "svr16", "state": "running",
                 "wait_s": 0.5, "progress": frame}]
        history = [{"busy_workers": 1, "queue_depth": 0},
                   {"busy_workers": 2, "queue_depth": 1}]
        text = render_server_view(health, jobs, history, "http://x")
        assert "PR_KR/svr16" in text and "50%" in text
        assert "cached 3" in text
        assert "history (2 samples)" in text

    def test_journal_mode(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(
            '{"event": "cell", "workload": "PR_KR", "technique": "svr16",'
            ' "status": "ok", "attempts": 1, "elapsed_s": 1.5,'
            ' "result": {"ipc": 1.25}}\n'
            '{"event": "cell", "workload": "Camel", "technique": "vr64",'
            ' "status": "failed", "attempts": 2, "elapsed_s": 3.0,'
            ' "failure": {"kind": "hang", "progress":'
            ' {"cycle": 900.0, "instructions": 100,'
            ' "target_instructions": 400}}}\n'
            "not json\n", encoding="utf-8")
        import io

        out = io.StringIO()
        assert run_top(journal=str(journal), once=True, out=out) == 0
        text = out.getvalue()
        assert "1 ok, 1 failed" in text
        assert "ipc 1.250" in text
        assert "hang @ cycle 900 (25% done)" in text

    def test_run_top_requires_exactly_one_source(self):
        import io

        with pytest.raises(ValueError):
            run_top(out=io.StringIO())

    def test_refresh_loop_paints_and_stops(self, tmp_path):
        import io

        journal = tmp_path / "empty.jsonl"
        journal.write_text("", encoding="utf-8")
        out = io.StringIO()
        naps = []
        assert run_top(journal=str(journal), interval_s=0.01,
                       iterations=3, out=out, sleep=naps.append) == 0
        assert out.getvalue().count("\x1b[H") == 3
        assert naps == [0.01, 0.01]


# ---------------------------------------------------------------------------
# Dashboard live-history section.
# ---------------------------------------------------------------------------

class TestDashboardHistory:
    def test_report_renders_live_history(self, tmp_path):
        from repro.harness.dashboard import generate_report

        ledger = tmp_path / "ledger.jsonl"
        lines = ['{"event": "serve.job", "state": "ok", "wait_s": 0.1,'
                 ' "run_s": 1.0}']
        for i in range(4):
            lines.append(
                '{"event": "serve.sample", "queue_depth": %d,'
                ' "busy_workers": %d, "inflight": 1, "jobs_ok": %d,'
                ' "jobs_failed": 0, "progress_frames": %d}'
                % (i, i % 2, i, i * 10))
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "report.html"
        _path, data = generate_report(journals=[ledger], out_path=out)
        assert len(data["service"]["samples"]) == 4
        html = out.read_text(encoding="utf-8")
        assert "Live history" in html
        assert "progress frames (cumulative)" in html

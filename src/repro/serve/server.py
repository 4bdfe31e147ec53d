"""The ``repro serve`` HTTP service: simulation as a service.

Stdlib-only (``http.server``) long-lived server tying the serving
pieces together around one **scheduler thread**:

* HTTP threads (``ThreadingHTTPServer``) only touch the internally
  locked admission objects — :class:`~repro.serve.queue.JobQueue`,
  :class:`~repro.serve.breaker.CircuitBreaker`,
  :class:`~repro.serve.store.ResultStore`;
* exactly one scheduler thread owns the
  :class:`~repro.exec.executor.WorkerPool` pipes and the
  :class:`~repro.exec.executor.OutcomeSink`, dispatching queued cells,
  harvesting verdicts, and settling them through the sink exactly as
  :func:`~repro.exec.executor.run_cells` does (retry decision, ``exec.*``
  probes, ledger records), then promoting successes into the
  content-addressed store and feeding the breaker.

Admission pipeline for ``POST /jobs`` (first refusal wins)::

    drain guard (503) -> validation (400)
      -> store hit (200, cached) -> breaker (200, quarantined verdict)
      -> queue (202, or 429 + Retry-After when full)

Graceful drain (SIGTERM/SIGINT or ``POST /admin/drain``): stop
admitting, let in-flight cells finish up to ``drain_timeout_s``, settle
stragglers as failures, stop the pool and the HTTP listener, exit 0.

Every stage emits ``serve.*`` probes through a private
:class:`~repro.obs.probes.ProbeBus`; :func:`install_serve_metrics`
turns them into the counters/histograms behind ``GET /metrics`` and the
``repro report`` service section.

The live observability plane rides the same spine: pool workers
stream in-flight progress frames, at the fixed cadences of
:mod:`repro.obs.progress`, that land on jobs (so
``GET /jobs/<id>?wait=S`` long-polls until something changes),
``GET /events`` streams job/progress/breaker events as chunked ndjson,
``GET /metrics`` speaks Prometheus text exposition under content
negotiation (JSON stays the default), and a bounded
:class:`~repro.serve.events.MetricsRing` behind ``GET /metrics/history``
feeds ``repro top`` and the report dashboard.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.exec.executor import Completion, ExecConfig, OutcomeSink, WorkerPool
from repro.exec.failures import HANG, RunFailure
from repro.exec.faults import FaultPlan
from repro.exec.spec import RunSpec
from repro.obs.metrics import (
    MetricsRegistry,
    install_exec_metrics,
    prometheus_exposition,
)
from repro.obs.probes import ProbeBus
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.events import EventBroker, MetricsRing
from repro.serve.queue import (
    FAILED,
    OK,
    QUARANTINED_STATE,
    Job,
    JobQueue,
    QueueFull,
)
from repro.serve.store import ResultStore

SERVE_VERSION = 1

# Seconds between the scheduler's gauge samples into the metrics
# history (``GET /metrics/history``, ``serve.sample`` ledger records).
SAMPLE_INTERVAL_S = 2.0

_SCALES = ("tiny", "bench", "default")
_SUBMIT_FIELDS = {"workload", "technique", "scale", "warmup", "measure"}


class Reject(Exception):
    """An admission refusal, carrying its HTTP shape."""

    def __init__(self, status: int, message: str,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


@dataclass
class ServeConfig:
    """Knobs for one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral (tests)
    workers: int = 2                  # warm worker processes
    queue_limit: int = 32             # distinct queued cells before 429
    timeout_s: float | None = 120.0   # wall-clock hang fence per attempt
    retries: int = 1                  # extra attempts for crash/hang
    backoff_s: float = 0.25           # first retry delay (jittered)
    max_backoff_s: float = 5.0
    store_dir: str = "results/store"
    ledger: str | None = "results/serve-ledger.jsonl"
    breaker_threshold: int = 3        # consecutive crash/hang -> open
    breaker_cooldown_s: float = 300.0
    drain_timeout_s: float = 30.0
    faults: FaultPlan | None = None   # injected faults (tests, demos)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"ServeConfig.workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"ServeConfig.queue_limit must be >= 1, "
                f"got {self.queue_limit}")
        if self.retries < 0:
            raise ValueError(
                f"ServeConfig.retries must be >= 0, got {self.retries}")
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"ServeConfig.drain_timeout_s must be >= 0, "
                f"got {self.drain_timeout_s}")


def install_serve_metrics(bus: ProbeBus,
                          registry: MetricsRegistry) -> dict[str, Any]:
    """Subscribe ``serve.*`` probes to service-level metrics."""
    counter = registry.counter
    requests = counter("serve.requests")
    request_ms = registry.histogram("serve.request_ms")
    admitted = counter("serve.admitted")
    coalesced = counter("serve.coalesced")
    cache_hits = counter("serve.cache_hits")
    cache_misses = counter("serve.cache_misses")
    wait_s = registry.histogram("serve.job_wait_s")
    run_s = registry.histogram("serve.job_run_s")

    def on_request(_name: str, ev: dict) -> None:
        requests.inc()
        counter(f"serve.requests_{ev['status'] // 100}xx").inc()
        request_ms.observe(ev["elapsed_s"] * 1e3)

    def on_admit(_name: str, ev: dict) -> None:
        admitted.inc()
        if ev.get("coalesced"):
            coalesced.inc()

    def on_reject(_name: str, ev: dict) -> None:
        counter(f"serve.rejected_{ev['reason']}").inc()

    def on_cache(_name: str, ev: dict) -> None:
        (cache_hits if ev["hit"] else cache_misses).inc()

    def on_job(_name: str, ev: dict) -> None:
        counter(f"serve.jobs_{ev['state']}").inc()
        if ev.get("wait_s") is not None:
            wait_s.observe(ev["wait_s"])
        if ev.get("run_s") is not None:
            run_s.observe(ev["run_s"])

    def on_breaker(_name: str, ev: dict) -> None:
        counter(f"serve.breaker_{ev['action']}").inc()

    def on_worker(_name: str, ev: dict) -> None:
        counter(f"serve.worker_{ev['action']}").inc()

    def on_store(_name: str, ev: dict) -> None:
        counter(f"serve.store_{ev['action']}").inc()

    progress_frames = counter("serve.progress_frames")

    def on_progress(_name: str, _ev: dict) -> None:
        progress_frames.inc()

    wiring: dict[str, Any] = {
        "serve.request": on_request,
        "serve.admit": on_admit,
        "serve.reject": on_reject,
        "serve.cache": on_cache,
        "serve.job": on_job,
        "serve.breaker": on_breaker,
        "serve.worker": on_worker,
        "serve.store": on_store,
        "serve.progress": on_progress,
    }
    for name, handler in wiring.items():
        bus.subscribe(name, handler)
    return wiring


class ReproServer:
    """One serving instance: admission front end, scheduler, store."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        config = self.config
        self.bus = ProbeBus()
        self.registry = MetricsRegistry()
        install_exec_metrics(self.bus, self.registry)
        install_serve_metrics(self.bus, self.registry)
        # serve.* probes fire from HTTP threads and the scheduler alike;
        # one lock serialises their emission.  The sink's exec.* probes
        # fire only on the scheduler thread.
        self._obs_lock = threading.Lock()
        self._p_request = self.bus.probe("serve.request")
        self._p_admit = self.bus.probe("serve.admit")
        self._p_reject = self.bus.probe("serve.reject")
        self._p_cache = self.bus.probe("serve.cache")
        self._p_job = self.bus.probe("serve.job")
        self._p_breaker = self.bus.probe("serve.breaker")
        self._p_worker = self.bus.probe("serve.worker")
        self._p_store = self.bus.probe("serve.store")
        self._p_progress = self.bus.probe("serve.progress")

        self.sink = OutcomeSink(ExecConfig(
            timeout_s=config.timeout_s, retries=config.retries,
            backoff_s=config.backoff_s, max_backoff_s=config.max_backoff_s,
            journal=config.ledger, bus=self.bus))
        self.ledger = self.sink.journal
        self.store = ResultStore(config.store_dir,
                                 on_corrupt=self._on_corrupt)
        self.queue = JobQueue(limit=config.queue_limit)
        self.breaker = CircuitBreaker(threshold=config.breaker_threshold,
                                      cooldown_s=config.breaker_cooldown_s)
        self.pool = WorkerPool(config.workers, timeout_s=config.timeout_s,
                               faults=config.faults, progress=True,
                               on_event=self._on_worker_event)
        self.events = EventBroker()
        self.history = MetricsRing()
        self._last_sample = 0.0

        self._attempts: dict[str, int] = {}     # key -> attempts so far
        self._elapsed: dict[str, float] = {}    # key -> summed attempt time
        self._delayed: list[tuple[float, str]] = []   # (ready_at, key)
        self._corrupt_seen = 0
        self._rebuild_lock = threading.Lock()
        self._draining = False
        self._drain_reason = ""
        self._drain_deadline = math.inf
        self._done = threading.Event()
        self._started_mono = time.monotonic()
        self._httpd: _HTTPServer | None = None
        self._threads: list[threading.Thread] = []
        self.port = config.port

    # -- observability helpers ----------------------------------------

    def _emit(self, probe: Any, **fields: Any) -> None:
        with self._obs_lock:
            probe.emit(**fields)

    def _on_corrupt(self, key: str, reason: str) -> None:
        self._emit(self._p_store, action="corrupt", key=key, reason=reason)

    def _on_worker_event(self, event: str, **fields: Any) -> None:
        if event == "progress":
            self._on_progress(fields)
            return
        self._emit(self._p_worker, action=event, **fields)
        self.events.publish("worker", action=event, **fields)

    def _on_progress(self, fields: dict[str, Any]) -> None:
        """A live frame from a busy pool worker: pin it to the jobs
        riding the cell (long-poll wakeup) and stream it."""
        frame: dict[str, Any] = fields.get("frame") or {}
        key = fields.get("key")
        jobs = self.queue.note_progress(key, frame) if key else []
        self._emit(self._p_progress, key=key, worker=fields.get("worker"),
                   phase=frame.get("phase"), cycle=frame.get("cycle"),
                   instructions=frame.get("instructions"),
                   ipc=frame.get("ipc"))
        self.events.publish("progress", key=key,
                            worker=fields.get("worker"),
                            jobs=[job.job_id for job in jobs],
                            frame=frame)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Warm the store, start workers, scheduler and HTTP listener."""
        if self.ledger is not None and self.ledger.exists():
            rebuilt = self.store.rebuild(self.ledger)
            if rebuilt:
                self._emit(self._p_store, action="rebuild", entries=rebuilt)
        scheduler = threading.Thread(target=self._scheduler_loop,
                                     name="repro-serve-scheduler",
                                     daemon=True)
        self._httpd = _HTTPServer((self.config.host, self.config.port),
                                  _Handler)
        self._httpd.repro = self
        self.port = self._httpd.server_address[1]
        listener = threading.Thread(target=self._httpd.serve_forever,
                                    kwargs={"poll_interval": 0.2},
                                    name="repro-serve-http", daemon=True)
        self._threads = [scheduler, listener]
        scheduler.start()
        listener.start()

    def request_drain(self, reason: str = "signal") -> None:
        """Begin graceful shutdown; idempotent, safe from any thread."""
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        self._drain_deadline = (time.monotonic()
                                + self.config.drain_timeout_s)
        self.events.publish("drain", reason=reason)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully shut down."""
        return self._done.wait(timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- admission (HTTP threads) -------------------------------------

    def submit(self, payload: Any) -> tuple[Job, int]:
        """Admit one submission; returns ``(job, http_status)`` or
        raises :class:`Reject`."""
        if self._draining:
            raise Reject(503, "server is draining; not accepting jobs")
        spec = self._validate(payload)
        key = spec.key
        record = self.lookup(key)
        if record is not None:
            job = self.queue.admit_terminal(spec, OK, cached=True)
            self._emit(self._p_cache, key=key, hit=True)
            self._job_settled(job)
            return job, 200
        self._emit(self._p_cache, key=key, hit=False)
        run_it, state = self.breaker.admit(key)
        if not run_it:
            failure = self.breaker.quarantine_failure(
                key, spec.workload, spec.technique_name)
            job = self.queue.admit_terminal(spec, QUARANTINED_STATE,
                                            failure=failure)
            self._emit(self._p_breaker, action="short_circuit", key=key,
                       state=state)
            self.events.publish("breaker", action="short_circuit",
                                key=key, state=state)
            self._job_settled(job)
            return job, 200
        try:
            job = self.queue.submit(spec)
        except QueueFull as exc:
            self._emit(self._p_reject, reason="queue_full")
            raise Reject(429, str(exc), exc.retry_after_s) from None
        self._emit(self._p_admit, key=key, coalesced=job.coalesced)
        self.events.publish("job", job_id=job.job_id, key=key,
                            state=job.state, coalesced=job.coalesced)
        return job, 202

    def _validate(self, payload: Any) -> RunSpec:
        """Map a request body to a :class:`RunSpec`, or 400."""
        if not isinstance(payload, dict):
            raise Reject(400, "request body must be a JSON object")
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            raise Reject(400, f"unknown field(s): {sorted(unknown)}; "
                              f"expected {sorted(_SUBMIT_FIELDS)}")
        workload = payload.get("workload")
        tech = payload.get("technique")
        if not isinstance(workload, str) or not workload:
            raise Reject(400, "'workload' must be a non-empty string")
        if not isinstance(tech, str) or not tech:
            raise Reject(400, "'technique' must be a non-empty string")
        scale = payload.get("scale", "bench")
        if scale not in _SCALES:
            raise Reject(400, f"'scale' must be one of {_SCALES}, "
                              f"got {scale!r}")
        windows: dict[str, int | None] = {}
        for name in ("warmup", "measure"):
            value = payload.get(name)
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool)
                                      or value < 0):
                raise Reject(400, f"{name!r} must be a non-negative "
                                  f"integer, got {value!r}")
            windows[name] = value
        try:
            spec = RunSpec.make(workload, tech, scale=scale,
                                warmup=windows["warmup"],
                                measure=windows["measure"])
        except (KeyError, ValueError, TypeError) as exc:
            raise Reject(400, f"invalid config: {exc}") from None
        from repro.workloads.registry import workload_names
        known = workload_names("irregular") + workload_names("spec")
        if workload not in known:
            raise Reject(400, f"unknown workload {workload!r}; known: "
                              f"{', '.join(known)}")
        return spec

    def lookup(self, key: str) -> dict[str, Any] | None:
        """Store read with the detect-and-rebuild loop: a miss caused by
        quarantined corruption triggers a ledger replay, then retries."""
        record = self.store.get(key)
        if record is not None:
            return record
        with self._rebuild_lock:
            if self.store.corrupt_detected == self._corrupt_seen:
                return None
            self._corrupt_seen = self.store.corrupt_detected
            if self.ledger is None or not self.ledger.exists():
                return None
            rebuilt = self.store.rebuild(self.ledger)
            self._emit(self._p_store, action="rebuild", entries=rebuilt)
        return self.store.get(key)

    def result_bytes(self, key: str) -> bytes | None:
        """Raw validated store-entry bytes (byte-identical across
        cache hits — the file is written once and never rewritten)."""
        if self.lookup(key) is None:
            return None
        try:
            return self.store.entry_path(key).read_bytes()
        except OSError:
            return None

    # -- scheduler thread ---------------------------------------------

    def _scheduler_loop(self) -> None:
        try:
            self._schedule_until_drained()
        finally:
            self._shutdown()

    def _schedule_until_drained(self) -> None:
        while True:
            now = time.monotonic()
            for ready_at, key in list(self._delayed):
                if ready_at <= now:
                    self._delayed.remove((ready_at, key))
                    self.queue.requeue(key)
            while self.pool.busy_count() < self.pool.size:
                spec = self.queue.next_cell()
                if spec is None:
                    break
                attempt = self._attempts.get(spec.key, 0) + 1
                self._attempts[spec.key] = attempt
                self.queue.bump_attempts(spec.key, attempt)
                self.pool.dispatch(spec, attempt)
                for job in self.queue.jobs_for(spec.key):
                    self.events.publish("job", job_id=job.job_id,
                                        key=spec.key, state=job.state,
                                        attempt=attempt)
            for completion in self.pool.poll(0.1):
                self._handle(completion)
            now = time.monotonic()
            if now - self._last_sample >= SAMPLE_INTERVAL_S:
                self._last_sample = now
                self._push_sample()
            if self._draining:
                idle = (self.queue.inflight() == 0
                        and not self._delayed)
                if idle or time.monotonic() >= self._drain_deadline:
                    return

    def _handle(self, c: Completion) -> None:
        """Settle one attempt through the sink, as ``run_cells`` does:
        finish its cell, or schedule a retry (never while draining)."""
        key = c.spec.key
        self._attempts.pop(key, None)
        elapsed = self._elapsed.pop(key, 0.0) + (c.ended - c.started)
        if c.ok:
            self._settle_ok(c, elapsed)
            return
        if c.timed_out:
            self.sink.timeout(c.spec, c.attempt)
        failure = c.failure
        failure.attempts, failure.elapsed_s = c.attempt, elapsed
        delay = (None if self._draining
                 else self.sink.retry_delay(c.spec, failure))
        if delay is None:
            self._settle_failed(c.spec, failure)
            return
        self._attempts[key], self._elapsed[key] = c.attempt, elapsed
        self._delayed.append((time.monotonic() + delay, key))
        self.events.publish("retry", key=key, attempt=c.attempt,
                            kind=failure.kind, delay_s=round(delay, 4))

    def _push_sample(self) -> None:
        """One point-in-time gauge sample into the history ring (and the
        ledger, so ``repro report`` can replay the service's live
        history after the fact)."""
        snap = self.registry.snapshot()
        sample = {
            "queue_depth": self.queue.depth(),
            "inflight": self.queue.inflight(),
            "busy_workers": self.pool.busy_count(),
            "idle_workers": self.pool.idle_count(),
            "worker_restarts": self.pool.restarts,
            "jobs_ok": snap.get("serve.jobs_ok", 0),
            "jobs_failed": snap.get("serve.jobs_failed", 0),
            "requests": snap.get("serve.requests", 0),
            "progress_frames": snap.get("serve.progress_frames", 0),
            "events_published": self.events.published,
        }
        self.history.push(sample)
        if self.ledger is not None:
            self.ledger.append_event("serve.sample", **sample)

    def _settle_ok(self, c: Completion, elapsed: float) -> None:
        key = c.spec.key
        outcome = self.sink.ok(c.spec, c.result, c.attempt, elapsed,
                               c.telemetry)
        # The ledger's record, stamped by its append: a rebuild from the
        # ledger writes back the very same entry.
        self.store.put(key, outcome.record)
        self.breaker.record_success(key)
        for job in self.queue.settle(key, OK, attempts=c.attempt):
            self._job_settled(job)

    def _settle_failed(self, spec: RunSpec, failure: RunFailure) -> None:
        key = spec.key
        state = self.breaker.record_failure(key, failure.kind,
                                            failure.message)
        if state == OPEN:
            self._emit(self._p_breaker, action="open", key=key,
                       consecutive=len(self.breaker.history(key)))
            self.events.publish("breaker", action="open", key=key)
            if self.ledger is not None:
                self.ledger.append_event("serve.breaker", key=key,
                                         state=state)
        self.sink.fail(spec, failure)
        for job in self.queue.settle(key, FAILED, attempts=failure.attempts,
                                     failure=failure):
            self._job_settled(job)

    def _job_settled(self, job: Job) -> None:
        self._emit(self._p_job, job_id=job.job_id, key=job.key,
                   state=job.state, cached=job.cached,
                   coalesced=job.coalesced, wait_s=job.wait_s(),
                   run_s=job.run_s())
        self.events.publish("job", job_id=job.job_id, key=job.key,
                            state=job.state, cached=job.cached,
                            coalesced=job.coalesced)
        if self.ledger is not None:
            self.ledger.append_event("serve.job", **job.to_dict())

    def _shutdown(self) -> None:
        # Finish (or expire) whatever is still on a worker, then settle
        # every remaining admitted cell so no job is left non-terminal.
        remaining = max(0.5, self._drain_deadline - time.monotonic())
        for completion in self.pool.drain(timeout_s=min(remaining, 10.0)):
            self._handle(completion)
        for key in self.queue.active_keys():
            attempts = self._attempts.pop(key, 0)
            jobs = self.queue.jobs()
            spec = next((j.spec for j in jobs if j.key == key), None)
            failure = RunFailure(
                key=key,
                workload=spec.workload if spec else "?",
                technique=spec.technique_name if spec else "?",
                kind=HANG, attempts=max(attempts, 1),
                message=(f"server drained ({self._drain_reason}) before "
                         "the cell completed"))
            for job in self.queue.settle(key, FAILED,
                                         attempts=max(attempts, 1),
                                         failure=failure):
                self._job_settled(job)
        if self.ledger is not None:
            self.ledger.append_event("serve.drain",
                                     reason=self._drain_reason,
                                     restarts=self.pool.restarts)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self._done.set()

    # -- introspection ------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": SERVE_VERSION,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "queue_depth": self.queue.depth(),
            "inflight": self.queue.inflight(),
            "workers": self.pool.snapshot(),
            "worker_restarts": self.pool.restarts,
            "breaker": self.breaker.snapshot(),
            "store": {"entries": len(self.store.keys()),
                      "writes": self.store.writes,
                      "corrupt_detected": self.store.corrupt_detected},
            "events_published": self.events.published,
            "event_subscribers": self.events.subscriber_count(),
        }

    def live_gauges(self) -> dict[str, float]:
        """Point-in-time values spliced into the Prometheus exposition
        (the registry only holds event-driven counters/histograms)."""
        return {
            "serve.queue_depth": float(self.queue.depth()),
            "serve.inflight": float(self.queue.inflight()),
            "serve.busy_workers": float(self.pool.busy_count()),
            "serve.idle_workers": float(self.pool.idle_count()),
            "serve.worker_restarts_total": float(self.pool.restarts),
            "serve.uptime_s": round(
                time.monotonic() - self._started_mono, 3),
        }


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro: ReproServer


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def rs(self) -> ReproServer:
        return self.server.repro        # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass                            # the serve.request probe covers it

    # -- response helpers ---------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str,
              retry_after_s: float | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After",
                             str(max(1, math.ceil(retry_after_s))))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, obj: Any,
              retry_after_s: float | None = None) -> None:
        body = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
        self._send(status, body, "application/json", retry_after_s)

    def _error(self, status: int, message: str,
               retry_after_s: float | None = None) -> None:
        payload: dict[str, Any] = {"error": message}
        if retry_after_s is not None:
            payload["retry_after_s"] = round(retry_after_s, 3)
        self._json(status, payload, retry_after_s)

    def _observed(self, method: str) -> None:
        started = time.monotonic()
        path = urlparse(self.path).path.rstrip("/") or "/"
        status = 500
        try:
            status = self._route(method, path)
        except BrokenPipeError:
            raise
        except Reject as exc:
            status = exc.status
            self._error(exc.status, str(exc), exc.retry_after_s)
        finally:
            self.rs._emit(self.rs._p_request, method=method, path=path,
                          status=status,
                          elapsed_s=time.monotonic() - started)

    # -- routing ------------------------------------------------------

    def do_GET(self) -> None:   # noqa: N802 — http.server API
        self._observed("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._observed("POST")

    def _query(self) -> dict[str, str]:
        """Last-wins flat view of the request's query string."""
        parsed = parse_qs(urlparse(self.path).query)
        return {name: values[-1] for name, values in parsed.items()}

    def _route(self, method: str, path: str) -> int:
        rs = self.rs
        if method == "GET":
            if path == "/healthz":
                self._json(200, rs.health())
                return 200
            if path == "/metrics":
                return self._get_metrics()
            if path == "/metrics/history":
                return self._get_history()
            if path == "/events":
                return self._get_events()
            if path == "/jobs":
                self._json(200, {"jobs": [job.to_dict()
                                          for job in rs.queue.jobs()]})
                return 200
            if path.startswith("/jobs/"):
                return self._get_job(path[len("/jobs/"):])
            if path.startswith("/results/"):
                return self._get_result(path[len("/results/"):])
            self._error(404, f"no such resource: {path}")
            return 404
        if path == "/jobs":
            return self._post_job()
        if path == "/admin/drain":
            rs.request_drain("http")
            self._json(202, {"status": "draining"})
            return 202
        self._error(404, f"no such resource: {method} {path}")
        return 404

    def _get_metrics(self) -> int:
        """JSON by default (the stable scripting surface); Prometheus
        text exposition via ``?format=prometheus`` or an ``Accept``
        header that asks for ``text/plain`` without JSON."""
        rs = self.rs
        accept = self.headers.get("Accept", "")
        wants_prom = (self._query().get("format") == "prometheus"
                      or ("text/plain" in accept
                          and "application/json" not in accept))
        if wants_prom:
            text = prometheus_exposition(rs.registry,
                                         extra_gauges=rs.live_gauges())
            self._send(200, text.encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
            return 200
        self._json(200, rs.registry.snapshot())
        return 200

    def _get_history(self) -> int:
        query = self._query()
        try:
            last = int(query.get("last", "0"))
        except ValueError:
            raise Reject(400, "'last' must be an integer") from None
        samples = self.rs.history.snapshot(last if last > 0 else None)
        self._json(200, {"samples": samples})
        return 200

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()

    def _get_events(self) -> int:
        """Chunked ndjson stream of live serve events.

        ``?replay=N`` pre-seeds the stream with recent history;
        ``?limit=N`` closes it after N events (deterministic tests and
        scripts).  A heartbeat line keeps the connection warm through
        idle stretches — and is how a vanished client is detected.  A
        client disconnect only unwinds this handler thread; the
        scheduler never blocks on a subscriber (bounded queues drop
        oldest).
        """
        rs = self.rs
        query = self._query()
        try:
            limit = int(query.get("limit", "0"))
            replay = int(query.get("replay", "0"))
        except ValueError:
            raise Reject(400, "'limit' and 'replay' must be "
                              "integers") from None
        sub = rs.events.subscribe(replay=max(0, replay))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        sent = 0
        try:
            while not (limit and sent >= limit):
                if rs.draining and rs._done.is_set():
                    break
                event = sub.get(timeout_s=2.0)
                if event is None:
                    self._write_chunk(b'{"event":"heartbeat"}\n')
                    continue
                line = json.dumps(event, sort_keys=True,
                                  default=str).encode("utf-8")
                self._write_chunk(line + b"\n")
                sent += 1
            self._write_chunk(b"")     # terminal chunk
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass                       # client went away mid-stream
        finally:
            sub.close()
            self.close_connection = True
        return 200

    def _get_job(self, job_id: str) -> int:
        rs = self.rs
        job = rs.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job: {job_id!r}")
            return 404
        query = self._query()
        if "wait" in query and not job.terminal:
            try:
                wait_s = min(float(query["wait"]), 60.0)
            except ValueError:
                raise Reject(400, "'wait' must be a number") from None
            try:
                version = int(query.get("version", job.version))
            except ValueError:
                raise Reject(400, "'version' must be an integer") from None
            job = rs.queue.wait_for_change(job_id, version, wait_s) or job
        payload: dict[str, Any] = {"job": job.to_dict()}
        if job.state == OK:
            record = rs.lookup(job.key)
            if record is not None:
                payload["result"] = record.get("result")
        self._json(200, payload)
        return 200

    def _get_result(self, key: str) -> int:
        try:
            body = self.rs.result_bytes(key)
        except ValueError as exc:       # non-hex key
            self._error(400, str(exc))
            return 400
        if body is None:
            self._error(404, f"no stored result for key {key!r}")
            return 404
        self._send(200, body, "application/json")
        return 200

    def _post_job(self) -> int:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise Reject(400, f"request body is not valid JSON: {exc}")
        job, status = self.rs.submit(payload)
        self._json(status, {"job": job.to_dict()})
        return status

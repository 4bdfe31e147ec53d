"""Fault-isolated execution of simulation cells with timeout, retry,
journaling and salvage.

:func:`run_cells` is the one entry point every sweep and figure routes
through.  Given a list of :class:`~repro.exec.spec.RunSpec` cells and an
:class:`ExecConfig`, it:

* deduplicates cells by config hash (shared baselines run once);
* serves already-successful cells from the resume journal when
  ``resume=True``;
* runs the rest either **inline** (in-process, the fast default for
  sequential use) or **isolated** (on a :class:`WorkerPool` of up to
  ``jobs`` warm worker processes, each attempt killed at ``timeout_s``
  wall-clock seconds) — isolated iff ``jobs > 1`` or a timeout is set;
* classifies every failure into a structured
  :class:`~repro.exec.failures.RunFailure` (``crash`` / ``hang`` /
  ``invalid-config``) instead of propagating;
* retries crashes and hangs with bounded, jittered exponential backoff;
* journals each completed cell so a re-invocation resumes where the
  previous one died;
* emits ``exec.*`` probe events on the probe bus for the observability
  layer, and with telemetry on records the spans of its own lifecycle
  (see ``docs/observability.md``).

:class:`WorkerPool` is the one process-isolation engine; ``repro serve``
drives it too, and only serve's pool streams live progress frames from
its workers (``WorkerPool(progress=True)``).  A worker process starts
only when there is a cell to hand it, then runs the cells sent over its
pipe one at a time through :class:`~repro.exec.telemetry.CellCapture`.
Between cells it keeps its imported modules and its heap (so its peak
RSS is a high-water mark over the cells it ran), but no cell state:
every cell builds its workload and simulator afresh.  A worker is
retired after any attempt that does not end ``ok`` — a failure it
reports, its death, or a wall-clock kill — so a failed cell never
shares a process with a later one; the next cell starts a fresh worker.

A failed cell is *salvaged*: it is reported in the :class:`ExecReport`
and the remaining cells still complete — the partial-but-honest
behaviour the figure harness needs.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback as traceback_mod
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.cores.base import SimulationError
from repro.exec.failures import (
    CRASH,
    HANG,
    INVALID_CONFIG,
    RETRY_KINDS,
    RunFailure,
)
from repro.exec.faults import (
    FaultPlan,
    InjectedCrash,
    _unit_interval,
    apply_fault,
)
from repro.exec.journal import RunJournal, cell_record
from repro.exec.spec import ResultView, RunSpec
from repro.exec.telemetry import (
    CellCapture,
    TelemetryConfig,
    aggregate_metrics,
    build_exec_trace,
    resource_summary,
    telemetry_records,
)
from repro.obs.probes import ProbeBus, default_bus
from repro.obs.progress import ProgressReporter, advancing
from repro.obs.runlog import SelfProfile


# Each retry delay is the previous one times BACKOFF_FACTOR, spread by
# ± BACKOFF_JITTER of itself.
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.1


@dataclass
class ExecConfig:
    """Knobs for one :func:`run_cells` invocation."""

    jobs: int = 1                     # concurrent isolated workers
    timeout_s: float | None = None    # wall-clock kill fence per attempt
    retries: int = 1                  # extra attempts after a crash or hang
    backoff_s: float = 0.25           # first retry delay ...
    max_backoff_s: float = 5.0        # ... capped here
    journal: str | None = None        # JSONL checkpoint path
    resume: bool = False              # serve journaled successes, re-run rest
    faults: FaultPlan | None = None   # seeded fault injection
    bus: ProbeBus | None = None       # probe bus; None = the default bus
    telemetry: TelemetryConfig | None = None   # per-cell capture; None = off

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"ExecConfig.jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(
                f"ExecConfig.retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"ExecConfig.timeout_s must be > 0, got {self.timeout_s}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("ExecConfig backoff delays must be >= 0")
        if self.resume and not self.journal:
            raise ValueError("ExecConfig.resume requires a journal path")

    @property
    def isolate(self) -> bool:
        """Cells run in worker processes iff ``jobs > 1`` or a timeout is
        set (a wall-clock kill needs a process to kill)."""
        return self.jobs > 1 or self.timeout_s is not None

    def backoff_delay(self, failed_attempt: int, key: str = "") -> float:
        """Delay before re-running *key* after its Nth failed attempt.

        Exponential growth capped at ``max_backoff_s``, then spread by a
        deterministic ± ``BACKOFF_JITTER`` fraction hashed from ``(key,
        attempt)`` — every cell backs off at its own phase, so a fleet of
        workers retrying the same transient outage cannot re-converge into
        a synchronized retry storm, yet the same run always produces the
        same delays.  Without a *key* the delay is the bare capped
        exponential.
        """
        delay = self.backoff_s * BACKOFF_FACTOR ** (failed_attempt - 1)
        delay = min(delay, self.max_backoff_s)
        if key:
            u = _unit_interval(0, f"{key}:a{failed_attempt}")
            delay *= 1.0 + BACKOFF_JITTER * (2.0 * u - 1.0)
        return min(max(delay, 0.0), self.max_backoff_s)


@dataclass
class CellOutcome:
    """Terminal state of one unique cell."""

    spec: RunSpec
    key: str
    status: str                       # 'ok' | 'failed'
    result: dict | None = None
    failure: RunFailure | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    cached: bool = False              # served from the resume journal
    telemetry: dict | None = None     # CellCapture.snapshot payload
    record: dict | None = None        # its journal cell record, as written

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def view(self) -> ResultView | None:
        return ResultView(self.result) if self.result is not None else None


class ExecReport:
    """Everything :func:`run_cells` learned, in caller order."""

    def __init__(self, outcomes: list[CellOutcome],
                 parent_spans: list[dict] | None = None) -> None:
        self.outcomes = outcomes
        self.by_key = {o.key: o for o in outcomes}
        # Exec-lifecycle spans recorded by the parent process (empty
        # unless ExecConfig.telemetry is set).
        self.parent_spans = parent_spans or []

    @property
    def failures(self) -> list[RunFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed_count(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def attempted_count(self) -> int:
        """Cells actually executed this invocation (not journal-served)."""
        return sum(1 for o in self.outcomes if not o.cached)

    def telemetry_records(self) -> list[dict]:
        """Per-cell telemetry payloads, sorted by cell key."""
        return telemetry_records(self.outcomes)

    def merged_metrics(self) -> dict:
        """Worker metric snapshots merged into one typed snapshot
        (counters summed, histograms merged bucket-wise, gauges
        last-write in key order) — deterministic regardless of worker
        completion order."""
        return aggregate_metrics(self.telemetry_records())

    def resources(self) -> dict:
        """CPU-seconds total and max-RSS high-water mark over all cells
        that carried a resource sample."""
        return resource_summary(self.telemetry_records())

    def trace(self) -> dict:
        """Merged Chrome/Perfetto trace: one process track per worker
        pid plus the parent's lifecycle track."""
        return build_exec_trace(self.telemetry_records(), self.parent_spans)

    def outcome_for(self, spec: RunSpec) -> CellOutcome | None:
        return self.by_key.get(spec.key)

    def result_for(self, spec: RunSpec) -> ResultView | None:
        outcome = self.by_key.get(spec.key)
        return outcome.view if outcome is not None and outcome.ok else None

    def summary(self) -> str:
        head = (f"{len(self.outcomes)} cell(s): {self.ok_count} ok"
                + (f" ({self.cached_count} from journal)"
                   if self.cached_count else "")
                + f", {self.failed_count} failed")
        lines = [head]
        for failure in self.failures:
            lines.append(f"  FAILED {failure}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# One attempt of one cell: fault injection and failure classification,
# shared by the inline runner and the worker body.
# ---------------------------------------------------------------------------

def _inject(faults: FaultPlan | None, spec: RunSpec, attempt: int, *,
            inline: bool) -> None:
    """Apply the fault *faults* decides for this attempt, if any."""
    if faults is not None and faults.active:
        kind = faults.decide(spec.key, spec.workload, spec.technique_name,
                             attempt)
        if kind is not None:
            apply_fault(kind, inline=inline, label=spec.label())


def _classify(spec: RunSpec, exc: BaseException) -> RunFailure:
    """The failure an attempt of *spec* that raised *exc* ends in; call
    it inside the ``except`` block, where the traceback is current."""
    common = {"key": spec.key, "workload": spec.workload,
              "technique": spec.technique_name}
    if isinstance(exc, InjectedCrash):
        return RunFailure(kind=CRASH, message=str(exc), **common)
    if isinstance(exc, SimulationError):   # includes InjectedHang
        return RunFailure(kind=HANG, message=str(exc), cycle=exc.cycle,
                          pc=exc.pc, **common)
    if isinstance(exc, (KeyError, ValueError, TypeError)):
        return RunFailure(kind=INVALID_CONFIG,
                          message=f"{type(exc).__name__}: {exc}", **common)
    return RunFailure(kind=CRASH, message=f"{type(exc).__name__}: {exc}",
                      traceback=traceback_mod.format_exc(limit=20), **common)


# ---------------------------------------------------------------------------
# Worker side (top-level so it is picklable under spawn too).
# ---------------------------------------------------------------------------

def _worker_main(conn, faults: FaultPlan | None,
                 telemetry: TelemetryConfig | None = None,
                 progress: bool = False) -> None:
    """Body of a :class:`WorkerPool` worker: run the cells sent over
    *conn* until told to stop.

    Protocol: the parent sends ``("run", spec, attempt)`` or
    ``("stop",)``.  For each cell the worker sends zero or more
    ``("progress", frame)`` messages while the simulation runs (only
    when *progress* is set; *frame* is a
    :meth:`~repro.obs.ProgressReporter.sample` dict), then
    exactly one terminal message — ``("ok", result_dict, telemetry)`` or
    ``("fail", RunFailure, telemetry)``, *telemetry* being the
    :meth:`CellCapture.snapshot` payload or None.  An injected crash is
    reported like any other exception.  After a ``fail`` the worker
    exits: its pool retires it.
    """
    def ship(frame: dict) -> None:
        # A dead parent must not turn a good cell into a crash: the
        # terminal send will surface the broken pipe if it matters.
        try:
            conn.send(("progress", frame))
        except OSError:
            pass

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] != "run":
            break
        _, spec, attempt = message
        reporter = ProgressReporter(ship) if progress else None
        capture = CellCapture(telemetry, spec, attempt)
        try:
            _inject(faults, spec, attempt, inline=False)
            result = capture.run(reporter)
            reply = ("ok", result, capture.snapshot("ok"))
        except BaseException as exc:   # noqa: BLE001 — report, then exit
            reply = ("fail", _classify(spec, exc),
                     capture.snapshot("failed"))
        try:
            conn.send(reply)
        except OSError:
            break
        if reply[0] != "ok":
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The worker pool: the one process-isolation engine.
# ---------------------------------------------------------------------------

@dataclass
class Completion:
    """One settled attempt, as :meth:`WorkerPool.poll` reports it.

    Exactly one of *result* and *failure* is set; the caller fills in the
    failure's ``attempts`` and ``elapsed_s``.
    """

    spec: RunSpec
    attempt: int
    started: float                     # monotonic: dispatch
    ended: float                       # monotonic: verdict
    result: dict | None = None
    failure: RunFailure | None = None
    telemetry: dict | None = None      # CellCapture.snapshot payload
    timed_out: bool = False            # killed by the wall-clock fence

    @property
    def ok(self) -> bool:
        return self.failure is None


class _Worker:
    """One pool slot: a worker process, or none before its first cell
    and after a retirement."""

    __slots__ = ("index", "proc", "conn", "spec", "attempt", "started",
                 "deadline", "last_frame", "jobs_done")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: Any = None
        self.spec: RunSpec | None = None      # the cell it runs; None = idle
        self.attempt = 0
        self.started = 0.0
        self.deadline: float | None = None
        self.last_frame: dict | None = None   # latest progress snapshot
        self.jobs_done = 0

    @property
    def state(self) -> str:
        if self.spec is not None:
            return "busy"
        return "idle" if self.proc is not None else "down"


def _reap(proc, grace_s: float) -> int | None:
    """Collect *proc*, letting it exit on its own for *grace_s* before
    terminating (then killing) it; returns its exit code."""
    proc.join(grace_s)
    if proc.is_alive():
        proc.terminate()
        proc.join(2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(2.0)
    exitcode = proc.exitcode
    proc.close()
    return exitcode


class WorkerPool:
    """Up to ``size`` warm worker processes, each running one cell at a
    time (see the module docstring for what a worker keeps and when it
    is replaced).

    Single-consumer: call :meth:`dispatch`, :meth:`poll`, :meth:`drain`
    and :meth:`stop` from one thread.  *on_event* is called as
    ``on_event(event, **fields)`` with:

    * ``"start"`` — a worker process started (``worker``, ``pid``,
      ``started``, ``ended``: monotonic times around the launch);
    * ``"restart"`` — a worker was retired after an attempt that did not
      end ``ok``, or died while idle (``worker``, ``pid``, ``reason``,
      ``started``, ``ended``); :attr:`restarts` counts these;
    * ``"stop"`` — :meth:`stop` shut a worker down (same fields);
    * ``"progress"`` — a live frame from a busy worker (``worker``,
      ``key``, ``attempt``, ``frame``); only with ``progress=True``.

    With ``progress=True`` each worker streams its cell's progress
    frames at the fixed cadences of :mod:`repro.obs.progress`, and the
    wall-clock fence becomes a stall fence: a frame that advances the
    simulated clock pushes the busy worker's deadline out.  ``repro
    serve`` turns it on; :func:`run_cells` does not.
    """

    def __init__(self, size: int, *, timeout_s: float | None = None,
                 faults: FaultPlan | None = None,
                 telemetry: TelemetryConfig | None = None,
                 progress: bool = False,
                 on_event: Callable[..., None] | None = None) -> None:
        if size < 1:
            raise ValueError(f"WorkerPool.size must be >= 1, got {size}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(
                f"WorkerPool.timeout_s must be > 0, got {timeout_s}")
        self.size = size
        self.timeout_s = timeout_s
        self.faults = faults
        self.telemetry = telemetry
        self.progress = progress
        self.on_event = on_event or (lambda _event, **_fields: None)
        self.restarts = 0
        self._ctx = mp.get_context()
        self._workers = [_Worker(i) for i in range(size)]

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.spec is not None)

    def idle_count(self) -> int:
        """Started workers waiting for a cell."""
        return sum(1 for w in self._workers if w.state == "idle")

    # -- dispatch -----------------------------------------------------

    def dispatch(self, spec: RunSpec, attempt: int) -> None:
        """Hand one cell to an idle worker, starting one if none is idle.
        The caller keeps at most ``size`` cells in flight."""
        started = time.monotonic()
        free = [w for w in self._workers if w.spec is None]
        if not free:
            raise RuntimeError("WorkerPool.dispatch: every worker is busy")
        worker = next((w for w in free if w.proc is not None), free[0])
        if worker.proc is not None:
            try:
                worker.conn.send(("run", spec, attempt))
            except OSError:
                self._retire(worker, "dead at dispatch")
        if worker.proc is None:
            self._start(worker, spec, attempt)
            worker.conn.send(("run", spec, attempt))
        worker.spec = spec
        worker.attempt = attempt
        worker.started = started
        worker.deadline = (time.monotonic() + self.timeout_s
                           if self.timeout_s is not None else None)
        worker.last_frame = None

    def _start(self, worker: _Worker, spec: RunSpec, attempt: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # _worker_main is looked up at spawn time, so a wrapper installed
        # on this module (perfbench/ledger.py's) is what the worker runs;
        # that ledger also reads the cell that caused the start from the
        # process name.
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.faults, self.telemetry, self.progress),
            daemon=True, name=f"repro-exec-{spec.key}-a{attempt}")
        started = time.monotonic()
        proc.start()
        child_conn.close()
        worker.proc, worker.conn = proc, parent_conn
        self.on_event("start", worker=worker.index, pid=proc.pid,
                      started=started, ended=time.monotonic())

    def _retire(self, worker: _Worker, reason: str, *,
                event: str = "restart", grace_s: float = 2.0) -> int | None:
        """Collect *worker*'s process and empty its slot; returns the
        process's exit code."""
        started = time.monotonic()
        pid = worker.proc.pid
        exitcode = _reap(worker.proc, grace_s)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc = worker.conn = None
        if event == "restart":
            self.restarts += 1
        self.on_event(event, worker=worker.index, pid=pid, reason=reason,
                      started=started, ended=time.monotonic())
        return exitcode

    # -- harvest ------------------------------------------------------

    def poll(self, timeout: float | None = None) -> list[Completion]:
        """Wait up to *timeout* seconds (None: until a worker reports or
        a deadline passes) and return the attempts that settled, killing
        busy workers past their wall-clock fence."""
        now = time.monotonic()
        horizons = [w.deadline for w in self._workers
                    if w.deadline is not None]
        if timeout is not None:
            horizons.append(now + timeout)
        live = [w for w in self._workers if w.proc is not None]
        ready = mp_connection.wait(
            [w.conn for w in live],
            timeout=max(0.0, min(horizons) - now) if horizons else None)
        done = []
        for worker in live:
            if worker.conn in ready:
                completion = self._harvest(worker)
                if completion is not None:
                    done.append(completion)
        now = time.monotonic()
        for worker in self._workers:
            if worker.deadline is not None and now >= worker.deadline:
                done.append(self._expire(worker))
        return done

    def _harvest(self, worker: _Worker) -> Completion | None:
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                if message[0] == "progress":
                    self._note_progress(worker, message[1])
                    continue
                completion, frame = self._finish(worker)
                if message[0] == "ok":
                    _, completion.result, completion.telemetry = message
                    return completion
                _, completion.failure, completion.telemetry = message
                completion.failure.progress = frame
                self._retire(worker, f"{completion.failure.kind} in "
                                     f"{completion.spec.label()}")
                return completion
        except (EOFError, OSError):
            return self._died(worker)
        return None

    def _note_progress(self, worker: _Worker, frame: dict) -> None:
        """Record a live frame.  An *advancing* simulated clock pushes the
        wall-clock deadline out: the stall fence leaves a slow cell that
        still makes simulated progress alone, and kills one whose cycle
        count froze at the original cadence."""
        if (worker.deadline is not None and self.timeout_s is not None
                and advancing(worker.last_frame, frame)):
            worker.deadline = time.monotonic() + self.timeout_s
        worker.last_frame = frame
        self.on_event("progress", worker=worker.index, key=worker.spec.key,
                      attempt=worker.attempt, frame=frame)

    def _finish(self, worker: _Worker) -> tuple[Completion, dict | None]:
        """Free *worker*'s cell slot: the bare Completion of its attempt
        and the last progress frame it sent."""
        completion = Completion(spec=worker.spec, attempt=worker.attempt,
                                started=worker.started,
                                ended=time.monotonic())
        frame = worker.last_frame
        worker.spec = None
        worker.deadline = None
        worker.last_frame = None
        worker.jobs_done += 1
        return completion, frame

    def _failure(self, completion: Completion, kind: str, message: str,
                 frame: dict | None) -> None:
        spec = completion.spec
        completion.failure = RunFailure(
            key=spec.key, workload=spec.workload,
            technique=spec.technique_name, kind=kind, message=message,
            cycle=frame.get("cycle") if frame else None,
            pc=frame.get("pc") if frame else None, progress=frame)

    def _died(self, worker: _Worker) -> Completion | None:
        """Pipe EOF: the worker process is gone."""
        if worker.spec is None:
            self._retire(worker, "died while idle")
            return None
        completion, frame = self._finish(worker)
        exitcode = self._retire(worker, "died")
        self._failure(completion, CRASH,
                      "worker died without reporting a result "
                      f"(exit code {exitcode})", frame)
        return completion

    def _expire(self, worker: _Worker) -> Completion:
        """Kill a busy worker past its wall-clock fence: a ``hang``."""
        completion, frame = self._finish(worker)
        self._retire(worker, "wall-clock fence", grace_s=0.0)
        attempt = completion.attempt
        if frame is None:
            text = (f"wall-clock timeout: no result within "
                    f"{self.timeout_s:g}s (attempt {attempt})")
        else:
            text = (f"stalled: no simulated-cycle advance within "
                    f"{self.timeout_s:g}s — last frame at cycle "
                    f"{frame.get('cycle', 0):.0f}, pc {frame.get('pc')}, "
                    f"{frame.get('phase')} phase (attempt {attempt})")
        self._failure(completion, HANG, text, frame)
        completion.timed_out = True
        return completion

    # -- shutdown -----------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> list[Completion]:
        """Finish in-flight work (bounded), then stop every worker.  A
        cell still running when the drain budget runs out is killed as a
        ``hang`` that names the drain; it is not a wall-clock timeout."""
        deadline = time.monotonic() + timeout_s
        done: list[Completion] = []
        while self.busy_count() and time.monotonic() < deadline:
            done.extend(self.poll(0.2))
        for worker in self._workers:
            if worker.spec is None:
                continue
            completion, frame = self._finish(worker)
            self._retire(worker, "drain deadline", grace_s=0.0)
            self._failure(completion, HANG,
                          "killed by the drain: still running after its "
                          f"{timeout_s:g}s budget "
                          f"(attempt {completion.attempt})", frame)
            done.append(completion)
        self.stop()
        return done

    def stop(self) -> None:
        """Shut every worker down: idle ones exit when asked, busy ones
        are killed."""
        for worker in self._workers:
            if worker.proc is not None and worker.spec is None:
                try:
                    worker.conn.send(("stop",))
                except OSError:
                    pass
        for worker in self._workers:
            if worker.proc is not None:
                self._retire(worker, "stop", event="stop",
                             grace_s=2.0 if worker.spec is None else 0.0)
                worker.spec = None
                worker.deadline = None

    def snapshot(self) -> list[dict[str, Any]]:
        return [{"worker": w.index,
                 "pid": w.proc.pid if w.proc is not None else None,
                 "state": w.state,
                 "jobs_done": w.jobs_done,
                 "running": w.spec.label() if w.spec is not None else None,
                 "progress": w.last_frame}
                for w in self._workers]


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------

class OutcomeSink:
    """Parent-side outcome plumbing: the retry decision, probe
    emissions, journal appends, and the spans of the exec lifecycle.
    :func:`run_cells`' runners and the ``repro serve`` scheduler settle
    every cell through it."""

    def __init__(self, config: ExecConfig) -> None:
        self.config = config
        bus = config.bus if config.bus is not None else default_bus()
        self.p_cell = bus.probe("exec.cell")
        self.p_failure = bus.probe("exec.failure")
        self.p_retry = bus.probe("exec.retry")
        self.p_timeout = bus.probe("exec.timeout")
        self.journal = (RunJournal(config.journal, bus=bus)
                        if config.journal else None)
        # The parent's track of the run (``run_cells``, ``attempt``,
        # ``spawn``, ``reap``), kept only while telemetry is on.
        self.profile = (SelfProfile()
                        if config.telemetry is not None else None)

    def span(self, name: str, started: float, ended: float,
             status: str = "ok", **attrs) -> None:
        """Record one interval of the exec lifecycle, timed on the
        monotonic clock the workers' spans share."""
        if self.profile is not None:
            self.profile.add(name, started, ended, status, **attrs)

    def attempt_span(self, spec: RunSpec, attempt: int, started: float,
                     ended: float, status: str) -> None:
        self.span("attempt", started, ended, status, key=spec.key,
                  workload=spec.workload, technique=spec.technique_name,
                  attempt=attempt)

    def worker_span(self, event: str, **fields) -> None:
        """A :class:`WorkerPool` ``on_event`` hook: record a worker's
        ``spawn`` (its ``start`` event) or ``reap`` (``restart``/``stop``)."""
        if event == "start":
            self.span("spawn", fields["started"], fields["ended"],
                      pid=fields["pid"])
        else:
            self.span("reap", fields["started"], fields["ended"],
                      pid=fields["pid"], reason=fields["reason"])

    def ok(self, spec: RunSpec, result: dict, attempts: int,
           elapsed_s: float, telemetry: dict | None = None) -> CellOutcome:
        outcome = CellOutcome(spec=spec, key=spec.key, status="ok",
                              result=result, attempts=attempts,
                              elapsed_s=elapsed_s, telemetry=telemetry)
        self._record(outcome)
        return outcome

    def fail(self, spec: RunSpec, failure: RunFailure,
             telemetry: dict | None = None) -> CellOutcome:
        outcome = CellOutcome(spec=spec, key=spec.key, status="failed",
                              failure=failure, attempts=failure.attempts,
                              elapsed_s=failure.elapsed_s,
                              telemetry=telemetry)
        self.p_failure.emit(key=spec.key, workload=spec.workload,
                            technique=spec.technique_name,
                            kind=failure.kind, message=failure.message,
                            attempts=failure.attempts)
        self._record(outcome)
        return outcome

    def cached(self, spec: RunSpec, record: dict) -> CellOutcome:
        outcome = CellOutcome(spec=spec, key=spec.key, status="ok",
                              result=record["result"],
                              attempts=record.get("attempts", 1),
                              elapsed_s=record.get("elapsed_s", 0.0),
                              cached=True,
                              telemetry=record.get("telemetry"),
                              record=record)
        self.p_cell.emit(key=spec.key, workload=spec.workload,
                         technique=spec.technique_name, status="ok",
                         cached=True, attempts=outcome.attempts,
                         elapsed_s=outcome.elapsed_s)
        return outcome

    def retry_delay(self, spec: RunSpec,
                    failure: RunFailure) -> float | None:
        """The backoff before the next attempt of a cell whose attempt
        ended in *failure* (announced on the bus and in the journal), or
        None when the failure is terminal."""
        config, attempt = self.config, failure.attempts
        if failure.kind not in RETRY_KINDS or attempt > config.retries:
            return None
        delay = config.backoff_delay(attempt, spec.key)
        self.p_retry.emit(key=spec.key, workload=spec.workload,
                          technique=spec.technique_name, attempt=attempt,
                          kind=failure.kind, delay_s=delay)
        if self.journal is not None:
            self.journal.append_event(
                "retry", key=spec.key, attempt=attempt, kind=failure.kind,
                message=failure.message, delay_s=round(delay, 3))
        return delay

    def timeout(self, spec: RunSpec, attempt: int) -> None:
        self.p_timeout.emit(key=spec.key, workload=spec.workload,
                            technique=spec.technique_name, attempt=attempt,
                            timeout_s=self.config.timeout_s)
        if self.journal is not None:
            self.journal.append_event(
                "timeout", key=spec.key, attempt=attempt,
                timeout_s=self.config.timeout_s)

    def _record(self, outcome: CellOutcome) -> None:
        spec = outcome.spec
        self.p_cell.emit(key=spec.key, workload=spec.workload,
                         technique=spec.technique_name,
                         status=outcome.status, cached=False,
                         attempts=outcome.attempts,
                         elapsed_s=outcome.elapsed_s)
        outcome.record = cell_record(
            key=spec.key, workload=spec.workload,
            technique=spec.technique_name, scale=spec.scale,
            status=outcome.status, attempts=outcome.attempts,
            elapsed_s=outcome.elapsed_s, result=outcome.result,
            failure=(outcome.failure.to_dict()
                     if outcome.failure else None),
            spec=spec.config_dict(), telemetry=outcome.telemetry)
        if self.journal is not None:
            self.journal.append(outcome.record)


def _run_inline(pending: list[RunSpec], config: ExecConfig,
                sink: OutcomeSink) -> list[CellOutcome]:
    outcomes = []
    for spec in pending:
        attempt = 1
        elapsed_total = 0.0
        while True:
            start = time.perf_counter()
            mono_start = time.monotonic()
            failure: RunFailure | None = None
            result = None
            capture = CellCapture(config.telemetry, spec, attempt)
            try:
                _inject(config.faults, spec, attempt, inline=True)
                result = capture.run()
            except Exception as exc:   # noqa: BLE001 — classified below
                failure = _classify(spec, exc)
            elapsed_total += time.perf_counter() - start
            mono_end = time.monotonic()
            if failure is None:
                sink.attempt_span(spec, attempt, mono_start, mono_end,
                                  "ok")
                outcomes.append(sink.ok(spec, result, attempt,
                                        elapsed_total,
                                        capture.snapshot("ok")))
                break
            sink.attempt_span(spec, attempt, mono_start, mono_end,
                              "error")
            failure.attempts = attempt
            failure.elapsed_s = elapsed_total
            delay = sink.retry_delay(spec, failure)
            if delay is not None:
                time.sleep(delay)
                attempt += 1
                continue
            outcomes.append(sink.fail(spec, failure,
                                      capture.snapshot("failed")))
            break
    return outcomes


class _Cell:
    __slots__ = ("spec", "attempt", "ready_at", "elapsed")

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self.attempt = 1
        self.ready_at = 0.0
        self.elapsed = 0.0


def _run_isolated(pending: list[RunSpec], config: ExecConfig,
                  sink: OutcomeSink) -> list[CellOutcome]:
    waiting: list[_Cell] = [_Cell(spec) for spec in pending]
    inflight: dict[str, _Cell] = {}
    outcomes: list[CellOutcome] = []

    pool = WorkerPool(config.jobs, timeout_s=config.timeout_s,
                      faults=config.faults, telemetry=config.telemetry,
                      on_event=sink.worker_span)

    def settle(c: Completion) -> None:
        """Record the attempt, then finish its cell or schedule a retry."""
        cell = inflight.pop(c.spec.key)
        cell.elapsed += c.ended - c.started
        status = "ok" if c.ok else "timeout" if c.timed_out else "error"
        sink.attempt_span(c.spec, c.attempt, c.started, c.ended, status)
        if c.ok:
            outcomes.append(sink.ok(c.spec, c.result, c.attempt,
                                    cell.elapsed, c.telemetry))
            return
        if c.timed_out:
            sink.timeout(c.spec, c.attempt)
        failure = c.failure
        failure.attempts = cell.attempt
        failure.elapsed_s = cell.elapsed
        delay = sink.retry_delay(cell.spec, failure)
        if delay is not None:
            cell.attempt += 1
            cell.ready_at = time.monotonic() + delay
            waiting.append(cell)
            return
        outcomes.append(sink.fail(cell.spec, failure, c.telemetry))

    try:
        while waiting or inflight:
            now = time.monotonic()
            for cell in sorted(waiting, key=lambda c: c.ready_at):
                if len(inflight) >= config.jobs or cell.ready_at > now:
                    break
                waiting.remove(cell)
                inflight[cell.spec.key] = cell
                pool.dispatch(cell.spec, cell.attempt)
            timeout = None
            if waiting and len(inflight) < config.jobs:
                timeout = max(0.0, min(c.ready_at for c in waiting) - now)
            if inflight:
                for completion in pool.poll(timeout):
                    settle(completion)
            else:
                time.sleep(timeout)
    finally:
        pool.stop()
    return outcomes


def run_cells(specs: Sequence[RunSpec],
              config: ExecConfig | None = None) -> ExecReport:
    """Execute every unique cell in *specs*; see the module docstring."""
    config = config or ExecConfig()
    sink = OutcomeSink(config)
    known = (sink.journal.load()
             if sink.journal is not None and config.resume else {})

    order: list[str] = []
    unique: dict[str, RunSpec] = {}
    outcomes: dict[str, CellOutcome] = {}
    pending: list[RunSpec] = []
    for spec in specs:
        key = spec.key
        if key in unique:
            continue
        unique[key] = spec
        order.append(key)
        record = known.get(key)
        if (record is not None and record.get("status") == "ok"
                and record.get("result") is not None):
            outcomes[key] = sink.cached(spec, record)
        else:
            pending.append(spec)

    started = time.monotonic()
    try:
        if pending:
            runner = _run_isolated if config.isolate else _run_inline
            for outcome in runner(pending, config, sink):
                outcomes[outcome.key] = outcome
    finally:
        sink.span("run_cells", started, time.monotonic(), cells=len(order),
                  jobs=config.jobs, isolate=config.isolate)
    return ExecReport([outcomes[k] for k in order],
                      parent_spans=(sink.profile.spans
                                    if sink.profile is not None else None))

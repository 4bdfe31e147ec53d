"""Bounded job queue with coalescing — the admission-control core.

A :class:`Job` is one submission; its *cell* is the underlying
``(workload, technique, scale)`` simulation keyed by the deterministic
config hash.  Duplicate submissions of an active cell **coalesce**: they
become additional jobs attached to the same in-flight cell instead of
re-simulating it, and all settle together when the cell reaches a
terminal verdict.

Backpressure is explicit: :meth:`JobQueue.submit` raises
:class:`QueueFull` (carrying a Retry-After hint) when the number of
*distinct queued cells* reaches the bound, rather than letting the
backlog — and every submitter's latency — grow without limit.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.exec.failures import RunFailure
from repro.exec.spec import RunSpec

QUEUED = "queued"
RUNNING = "running"
OK = "ok"
FAILED = "failed"
QUARANTINED_STATE = "quarantined"

TERMINAL_STATES = (OK, FAILED, QUARANTINED_STATE)


class QueueFull(RuntimeError):
    """Raised at admission when the queue is at capacity."""

    def __init__(self, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"job queue full ({depth}/{limit} cells queued)")
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One submission through its lifecycle."""

    job_id: str
    spec: RunSpec
    state: str = QUEUED
    submitted_ts: float = field(default_factory=time.time)
    started_mono: float | None = None
    finished_mono: float | None = None
    queued_mono: float = field(default_factory=time.monotonic)
    attempts: int = 0
    cached: bool = False
    coalesced: bool = False
    failure: RunFailure | None = None
    progress: dict | None = None   # latest in-flight frame while running
    version: int = 0               # bumped on every observable change

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait_s(self) -> float | None:
        """Queue wait: time-to-start once started, time-so-far before."""
        if self.started_mono is None:
            if self.state == QUEUED:
                return time.monotonic() - self.queued_mono
            return None
        return self.started_mono - self.queued_mono

    def run_s(self) -> float | None:
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id, "key": self.key,
            "workload": self.spec.workload,
            "technique": self.spec.technique_name,
            "scale": self.spec.scale, "state": self.state,
            "submitted_ts": self.submitted_ts,
            "attempts": self.attempts, "cached": self.cached,
            "coalesced": self.coalesced, "version": self.version,
        }
        if self.wait_s() is not None:
            out["wait_s"] = round(self.wait_s(), 6)
        if self.run_s() is not None:
            out["run_s"] = round(self.run_s(), 6)
        if self.failure is not None:
            out["failure"] = self.failure.to_dict()
        if self.progress is not None:
            out["progress"] = self.progress
        return out


class JobQueue:
    """Thread-safe bounded queue of jobs, coalesced per config hash."""

    def __init__(self, limit: int = 64, retry_after_s: float = 2.0,
                 max_done: int = 512) -> None:
        if limit < 1:
            raise ValueError(f"JobQueue.limit must be >= 1, got {limit}")
        self.limit = limit
        self.retry_after_s = retry_after_s
        self.max_done = max_done
        self._lock = threading.Lock()
        # Long-poll wakeups: every observable job change bumps the job's
        # version and notifies.  HTTP threads wait on this condition; the
        # scheduler thread is the only notifier, so wakeups are cheap.
        self._changed = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._jobs: dict[str, Job] = {}          # job_id -> Job
        self._order: list[str] = []              # insertion order
        self._pending: list[str] = []            # queued cell keys, FIFO
        self._active: dict[str, list[str]] = {}  # key -> job_ids in flight

    # -- admission ----------------------------------------------------

    def submit(self, spec: RunSpec) -> Job:
        """Admit one submission; raises :class:`QueueFull` at capacity.

        A submission whose cell is already queued or running coalesces
        onto it (and is exempt from the capacity check — it adds no
        simulation work).
        """
        with self._lock:
            key = spec.key
            coalesced = key in self._active
            if not coalesced and len(self._pending) >= self.limit:
                raise QueueFull(len(self._pending), self.limit,
                                self.retry_after_s)
            job = Job(job_id=f"job-{next(self._ids)}", spec=spec,
                      coalesced=coalesced)
            self._remember(job)
            if coalesced:
                job.state = self._jobs[self._active[key][0]].state
                self._active[key].append(job.job_id)
            else:
                self._active[key] = [job.job_id]
                self._pending.append(key)
            return job

    def admit_terminal(self, spec: RunSpec, state: str, *,
                       cached: bool = False,
                       failure: RunFailure | None = None) -> Job:
        """Record a job that settles at admission time (cache hit or
        breaker quarantine) without ever entering the queue."""
        with self._lock:
            job = Job(job_id=f"job-{next(self._ids)}", spec=spec,
                      state=state, cached=cached, failure=failure)
            now = time.monotonic()
            job.started_mono = job.finished_mono = now
            self._remember(job)
            return job

    def _remember(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        # Bound memory: evict the oldest *terminal* jobs beyond max_done.
        if len(self._order) > self.max_done:
            for job_id in list(self._order):
                if len(self._order) <= self.max_done:
                    break
                if self._jobs[job_id].terminal:
                    self._order.remove(job_id)
                    del self._jobs[job_id]

    # -- scheduler side -----------------------------------------------

    def next_cell(self) -> RunSpec | None:
        """Pop the oldest queued cell and mark its jobs running."""
        with self._lock:
            if not self._pending:
                return None
            key = self._pending.pop(0)
            spec = None
            now = time.monotonic()
            for job_id in self._active.get(key, ()):
                job = self._jobs[job_id]
                job.state = RUNNING
                job.started_mono = now
                job.version += 1
                spec = job.spec
            self._changed.notify_all()
            return spec

    def requeue(self, key: str) -> None:
        """Put a cell back at the head (retry after a transient failure)."""
        with self._lock:
            if key in self._active and key not in self._pending:
                self._pending.insert(0, key)
                for job_id in self._active[key]:
                    job = self._jobs[job_id]
                    job.state = QUEUED
                    job.version += 1
                self._changed.notify_all()

    def settle(self, key: str, state: str, *, attempts: int = 1,
               failure: RunFailure | None = None) -> list[Job]:
        """Finish every job riding *key*; returns the settled jobs."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"settle needs a terminal state, got {state!r}")
        with self._lock:
            settled = []
            now = time.monotonic()
            for job_id in self._active.pop(key, ()):
                job = self._jobs[job_id]
                job.state = state
                job.attempts = attempts
                job.failure = failure
                if job.started_mono is None:
                    job.started_mono = now
                job.finished_mono = now
                job.version += 1
                settled.append(job)
            if key in self._pending:       # settled while still queued
                self._pending.remove(key)
            self._changed.notify_all()
            return settled

    def bump_attempts(self, key: str, attempts: int) -> None:
        with self._lock:
            for job_id in self._active.get(key, ()):
                job = self._jobs[job_id]
                job.attempts = attempts
                job.version += 1
            self._changed.notify_all()

    def note_progress(self, key: str, frame: dict) -> list[Job]:
        """Attach a live progress frame to every job riding *key*;
        returns the jobs it landed on (empty when the cell settled
        before the frame arrived)."""
        with self._lock:
            updated = []
            for job_id in self._active.get(key, ()):
                job = self._jobs[job_id]
                job.progress = frame
                job.version += 1
                updated.append(job)
            if updated:
                self._changed.notify_all()
            return updated

    def active_keys(self) -> list[str]:
        """Cells admitted but not yet settled (queued + running)."""
        with self._lock:
            return list(self._active)

    def jobs_for(self, key: str) -> list[Job]:
        """The jobs currently riding an active cell."""
        with self._lock:
            return [self._jobs[job_id]
                    for job_id in self._active.get(key, ())]

    # -- introspection ------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def wait_for_change(self, job_id: str, version: int,
                        timeout_s: float) -> Job | None:
        """Long-poll primitive: block until the job's version exceeds
        *version* (state flip, attempt bump, or progress frame), the job
        is terminal, or *timeout_s* elapses.  Returns the job as it
        stands at wakeup (current state on timeout — never an error),
        or ``None`` when the job id is unknown.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._changed:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None
                if job.version > version or job.terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._changed.wait(remaining)

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def inflight(self) -> int:
        """Cells admitted but not yet settled (queued + running)."""
        with self._lock:
            return len(self._active)

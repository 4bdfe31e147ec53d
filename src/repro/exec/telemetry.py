"""Cross-process telemetry: what a worker captures and how the parent
merges it.

Process isolation (PR 3) made cells robust but blinded the observability
layer — a worker's metrics, spans and trace events died with the worker.
This module is the bridge.  Each worker (or inline attempt) builds a
:class:`CellCapture` around :func:`repro.exec.spec.execute_spec`:

* a :class:`~repro.obs.spans.SpanTracer` spanning the cell and the
  simulator phases (``build`` / ``warmup`` / ``measure`` /
  ``serialize``), plus cycle-clock PRM phase spans bridged off the
  probe bus;
* a private :class:`~repro.obs.MetricsRegistry` fed by
  ``install_standard_metrics`` over the measured window, exported in
  the *typed* (mergeable) form;
* a bounded tail of probe-derived Chrome trace events;
* ``resource.getrusage`` CPU time (delta over the attempt) and max RSS
  sampled at cell exit.

The resulting :meth:`CellCapture.snapshot` dict is JSON-ready: it ships
back over the worker result pipe, lands in the resume journal, and is
aggregated by :func:`aggregate_metrics` / :func:`build_exec_trace` on
the parent side.  Capture is **opt-in** via
:class:`TelemetryConfig` — the executor's default path stays exactly as
cheap as before, which is what keeps the ``repro bench`` trajectory
flat.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs import (
    ChromeTraceBuilder,
    RunObservation,
    SpanTracer,
    Subscription,
    bridge_probe_spans,
    build_multiprocess_trace,
    merge_typed_snapshots,
    spans_to_trace_events,
)

if TYPE_CHECKING:                      # import cycle: executor imports us
    from repro.exec.executor import CellOutcome
    from repro.exec.spec import RunSpec

try:
    import resource
except ImportError:                    # non-POSIX platform
    resource = None  # type: ignore[assignment]

TELEMETRY_VERSION = 1

# Sim trace events keep their builder tids (1..5); span slices go on a
# tid far above them so the tracks never collide on a worker's process
# track in the merged view.
SPAN_TID = 100


@dataclass(frozen=True)
class TelemetryConfig:
    """What each attempt captures.  All knobs picklable (shipped to the
    worker with its spec)."""

    metrics: bool = True        # per-worker typed MetricsRegistry snapshot
    spans: bool = True          # lifecycle + sim phase spans
    rusage: bool = True         # CPU time + max RSS at cell exit
    trace_tail: int = 128       # last N probe-derived trace events; 0 = off
    max_spans: int = 2048

    def __post_init__(self) -> None:
        if self.trace_tail < 0:
            raise ValueError("TelemetryConfig.trace_tail must be >= 0, "
                             f"got {self.trace_tail}")
        if self.max_spans < 1:
            raise ValueError("TelemetryConfig.max_spans must be >= 1, "
                             f"got {self.max_spans}")


def _rusage() -> tuple[float, float, int]:
    """(user_s, system_s, max_rss_kib) for this process; zeros when the
    platform has no ``resource`` module."""
    if resource is None:
        return 0.0, 0.0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    max_rss = usage.ru_maxrss
    if sys.platform == "darwin":       # bytes there, KiB on Linux
        max_rss //= 1024
    return usage.ru_utime, usage.ru_stime, int(max_rss)


class _CaptureObservation(RunObservation):
    """A :class:`RunObservation` that also opens spans around the
    simulator phases and anchors the measured window on the wall clock
    (the anchor that lets cycle-time trace events be rebased onto the
    merged wall timeline)."""

    def __init__(self, config: TelemetryConfig,
                 tracer: SpanTracer | None) -> None:
        super().__init__(metrics=config.metrics)
        self.tracer = tracer
        if config.trace_tail > 0:
            # The builder keeps the head of the stream; the snapshot
            # slices the tail of what was kept.  The cap bounds worker
            # memory while leaving room for the tail to be meaningful.
            self.trace = ChromeTraceBuilder(
                max_events=max(config.trace_tail * 64, 4096))
        self.measure_wall: dict[str, float] = {}
        self._bridge: list[Subscription] = []

    @contextmanager
    def section(self, name: str):
        with super().section(name):
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(name):
                    yield

    def begin_measure(self) -> None:
        super().begin_measure()
        self.measure_wall["start"] = time.monotonic()
        if self.tracer is not None:
            self._bridge = bridge_probe_spans(self.tracer, self.bus)

    def end_measure(self) -> None:
        super().end_measure()
        self.measure_wall.setdefault("start", time.monotonic())
        self.measure_wall["end"] = time.monotonic()
        for sub in self._bridge:
            sub.cancel()
        self._bridge = []


class CellCapture:
    """Telemetry envelope for one attempt of one cell.

    Usage (worker or inline)::

        capture = CellCapture(config, spec, attempt)
        result = capture.run()               # execute_spec under spans
        payload = capture.snapshot("ok")     # JSON-ready, never raises
    """

    def __init__(self, config: TelemetryConfig | None, spec: "RunSpec",
                 attempt: int) -> None:
        self.config = config
        self.spec = spec
        self.attempt = attempt
        self.tracer: SpanTracer | None = None
        self.obs: _CaptureObservation | None = None
        self._cpu0 = (0.0, 0.0)
        if config is None:
            return
        if config.spans:
            self.tracer = SpanTracer(max_spans=config.max_spans)
        if config.metrics or config.trace_tail > 0 or config.spans:
            self.obs = _CaptureObservation(config, self.tracer)
        if config.rusage:
            user, system, _ = _rusage()
            self._cpu0 = (user, system)

    def run(self, progress: Any = None) -> dict[str, Any]:
        from repro.exec.spec import execute_spec

        if self.config is None:
            return execute_spec(self.spec, progress=progress)
        cell = (self.tracer.begin(
                    "cell", key=self.spec.key, workload=self.spec.workload,
                    technique=self.spec.technique_name, attempt=self.attempt)
                if self.tracer is not None else None)
        try:
            result = execute_spec(self.spec, obs=self.obs,
                                  progress=progress)
        except BaseException:
            if cell is not None:
                self.tracer.end(cell, status="error")
            raise
        if self.tracer is not None:
            with self.tracer.span("serialize"):
                # Measure the JSON-sizing cost of the result dict the
                # pipe is about to carry; the send itself happens in the
                # caller, after this span closes.
                pass
            self.tracer.end(cell)
        return result

    def snapshot(self, status: str) -> dict[str, Any] | None:
        """The JSON-ready telemetry payload; never raises (a telemetry
        bug must not turn a good cell into a failed one)."""
        if self.config is None:
            return None
        try:
            return self._snapshot(status)
        except Exception:        # pragma: no cover - defensive
            return None

    def _snapshot(self, status: str) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "v": TELEMETRY_VERSION,
            "pid": os.getpid(),
            "status": status,
            "key": self.spec.key,
            "workload": self.spec.workload,
            "technique": self.spec.technique_name,
            "attempt": self.attempt,
        }
        if self.config.rusage:
            user, system, max_rss = _rusage()
            payload["cpu_user_s"] = round(user - self._cpu0[0], 6)
            payload["cpu_system_s"] = round(system - self._cpu0[1], 6)
            payload["cpu_s"] = round(payload["cpu_user_s"]
                                     + payload["cpu_system_s"], 6)
            payload["max_rss_kib"] = max_rss
        if self.tracer is not None:
            # Close anything a mid-measure exception left dangling so the
            # span tree ships complete.
            while self.tracer.current is not None:
                self.tracer.end(status="error")
            payload["spans"] = self.tracer.export()
            payload["spans_dropped"] = self.tracer.dropped
        if self.obs is not None:
            if self.obs.registry is not None:
                payload["metrics"] = self.obs.registry.typed_snapshot()
            if self.obs.trace is not None:
                tail = self.obs.trace.events[-self.config.trace_tail:]
                payload["trace_events"] = tail
                payload["trace_dropped"] = (
                    self.obs.trace.dropped
                    + len(self.obs.trace.events) - len(tail))
            if self.obs.measure_wall:
                payload["measure_wall"] = dict(self.obs.measure_wall)
            payload["profile"] = self.obs.profile.snapshot()
        return payload


# ---------------------------------------------------------------------------
# Parent-side aggregation.
# ---------------------------------------------------------------------------

def telemetry_records(outcomes: "list[CellOutcome]") -> list[dict[str, Any]]:
    """Telemetry payloads of *outcomes*, sorted by cell key — the
    deterministic order every aggregate below relies on, so worker
    completion order never changes a merged number."""
    pairs = [(o.key, o.telemetry) for o in outcomes
             if o.telemetry is not None]
    return [telemetry for _key, telemetry in sorted(pairs,
                                                    key=lambda kv: kv[0])]


def aggregate_metrics(outcomes: "list[CellOutcome]") -> dict[str, Any]:
    """Merged typed metric snapshot over every outcome carrying one."""
    return merge_typed_snapshots(
        [t["metrics"] for t in telemetry_records(outcomes)
         if t.get("metrics")])


def resource_summary(outcomes: "list[CellOutcome]") -> dict[str, Any]:
    """Totals of the per-cell resource samples: CPU seconds sum, RSS
    takes the high-water mark (inline cells share one watermark)."""
    records = telemetry_records(outcomes)
    cpu = sum(t.get("cpu_s", 0.0) for t in records)
    rss = max((t.get("max_rss_kib", 0) for t in records), default=0)
    return {"cells": len(records), "cpu_s": round(cpu, 6),
            "max_rss_kib": rss,
            "pids": sorted({t["pid"] for t in records})}


def _rebase_sim_events(events: list[dict[str, Any]],
                       measure_wall: dict[str, float],
                       ) -> list[dict[str, Any]]:
    """Map cycle-time trace events affinely onto the wall-clock measure
    window they were recorded in, so a worker's sim-side tail renders
    inside its ``measure`` span on the merged timeline."""
    if not events or "start" not in measure_wall:
        return []
    times = [ev["ts"] for ev in events
             if isinstance(ev.get("ts"), (int, float))]
    ends = [ev["ts"] + ev.get("dur", 0.0) for ev in events
            if isinstance(ev.get("ts"), (int, float))]
    if not times:
        return []
    t_lo, t_hi = min(times), max(max(ends), min(times))
    wall_lo = measure_wall["start"] * 1e6
    wall_hi = measure_wall.get("end", measure_wall["start"]) * 1e6
    span = max(wall_hi - wall_lo, 1.0)
    scale = span / max(t_hi - t_lo, 1.0)
    out = []
    for ev in events:
        if not isinstance(ev.get("ts"), (int, float)):
            continue
        ev = dict(ev)
        ev["ts"] = wall_lo + (ev["ts"] - t_lo) * scale
        if isinstance(ev.get("dur"), (int, float)):
            ev["dur"] = max(ev["dur"] * scale, 0.01)
        out.append(ev)
    return out


def build_exec_trace(outcomes: "list[CellOutcome]",
                     parent_spans: list[dict[str, Any]] | None = None,
                     ) -> dict[str, Any]:
    """One Perfetto trace for a whole executor invocation: the parent's
    lifecycle spans on its own process track, plus one process track per
    worker pid carrying the spans and rebased sim-event tails of every
    cell that worker ran, labelled with the pid and the cell count."""
    processes: list[dict[str, Any]] = []
    if parent_spans:
        processes.append({
            "pid": os.getpid(), "label": "repro-exec parent",
            "events": spans_to_trace_events(parent_spans, pid=os.getpid(),
                                            tid=SPAN_TID)})
    records = telemetry_records(outcomes)
    cells = Counter(t["pid"] for t in records)
    for telemetry in records:
        pid = telemetry["pid"]
        label = (f"worker {pid} ({cells[pid]} "
                 f"cell{'' if cells[pid] == 1 else 's'})")
        events = spans_to_trace_events(telemetry.get("spans") or [],
                                       pid=pid, tid=SPAN_TID)
        events += _rebase_sim_events(telemetry.get("trace_events") or [],
                                     telemetry.get("measure_wall") or {})
        processes.append({"pid": pid, "label": label, "events": events})
    return build_multiprocess_trace(processes)

"""Cross-process telemetry: what a worker captures and how the parent
merges it.

Process isolation made cells robust but blinded the observability
layer — a worker's metrics, spans and trace events died with the worker.
This module is the bridge.  Each worker (or inline attempt) builds a
:class:`CellCapture` around :func:`repro.exec.spec.execute_spec`:

* four phase spans — ``cell``, and the simulator phases ``build`` /
  ``warmup`` / ``measure`` inside it — timed by the observation's one
  phase timer (:class:`repro.obs.SelfProfile`);
* a private :class:`~repro.obs.MetricsRegistry` holding the measured
  window's counters, read off the simulator's stats objects when the
  window closes, and its probe-fed histograms, exported in the *typed*
  (mergeable) form;
* the last :data:`TRACE_TAIL` probe-derived Chrome trace events of the
  window (every PRM episode among them, one slice each), with the
  window's cycle bounds to place them on the ``measure`` span by;
* ``resource.getrusage`` CPU time (delta over the attempt) and max RSS
  sampled at cell exit.

The resulting :meth:`CellCapture.snapshot` dict is JSON-ready: it ships
back over the worker result pipe, lands in the resume journal, and is
aggregated by :func:`aggregate_metrics`, :func:`resource_summary` and
:func:`build_exec_trace` on the parent side (and by ``repro report``
from a journal).  Capture is **opt-in** via :class:`TelemetryConfig` —
the executor's default path stays exactly as cheap as before, which is
what keeps the inline benchmark workloads (``perfbench/``) from paying
for it.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs import (
    ChromeTraceBuilder,
    RunObservation,
    build_multiprocess_trace,
    merge_typed_snapshots,
    spans_to_trace_events,
)
from repro.obs.export import TICKS_PER_CYCLE

if TYPE_CHECKING:                      # import cycle: executor imports us
    from repro.exec.executor import CellOutcome
    from repro.exec.spec import RunSpec

try:
    import resource
except ImportError:                    # non-POSIX platform
    resource = None  # type: ignore[assignment]

# v2: four phase spans and no ``profile``, ``measure_wall`` or
# ``spans_dropped`` (v1 also shipped a cycle-clock span per PRM episode).
TELEMETRY_VERSION = 2

# The last this-many probe-derived Chrome events of the measured window
# ship with each attempt; the rest are counted as dropped.
TRACE_TAIL = 128

# Sim trace events keep their builder tids (2..4); span slices go on a
# tid far above them so the tracks never collide on a worker's process
# track in the merged view.
SPAN_TID = 100


@dataclass(frozen=True)
class TelemetryConfig:
    """Capture telemetry for each attempt: ``ExecConfig(telemetry=
    TelemetryConfig())`` turns it on, ``telemetry=None`` (the default)
    leaves it off.  What is captured is fixed (see the module docstring);
    the value is shipped to the worker with its spec."""


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


class _TailTrace(ChromeTraceBuilder):
    """A Chrome trace builder that keeps only the last
    :data:`TRACE_TAIL` events; ``dropped`` counts the ones pushed out."""

    def __init__(self) -> None:
        super().__init__()
        self.events = deque(maxlen=TRACE_TAIL)     # type: ignore[assignment]

    def _push(self, event: dict[str, Any]) -> None:
        if len(self.events) == TRACE_TAIL:
            self.dropped += 1
        self.events.append(event)


class _CaptureObservation(RunObservation):
    """A :class:`RunObservation` that keeps only the tail of the
    window's Chrome events, and the window's simulated-cycle bounds (the
    pair with its ``measure`` span that lets cycle-time trace events be
    rebased onto the merged wall timeline)."""

    def __init__(self) -> None:
        super().__init__()
        self.trace = _TailTrace()
        self.measure_cycles: dict[str, float] = {}

    def end_measure(self) -> None:
        core = self._core
        super().end_measure()
        if core is not None:
            self.measure_cycles = {"start": core.stats.start_cycle,
                                   "end": core.stats.end_cycle}


class CellCapture:
    """Telemetry envelope for one attempt of one cell.

    Usage (worker or inline)::

        capture = CellCapture(config, spec, attempt)
        result = capture.run()               # execute_spec, timed
        payload = capture.snapshot("ok")     # JSON-ready, never raises
    """

    def __init__(self, config: TelemetryConfig | None, spec: "RunSpec",
                 attempt: int) -> None:
        self.spec = spec
        self.attempt = attempt
        self.obs: _CaptureObservation | None = None
        self._cpu0 = (0.0, 0.0)
        if config is None:
            return
        self.obs = _CaptureObservation()
        user, system, _ = _rusage()
        self._cpu0 = (user, system)

    def run(self, progress: Any = None) -> dict[str, Any]:
        from repro.exec.spec import execute_spec

        spec = self.spec
        if self.obs is None:
            return execute_spec(spec, progress=progress)
        with self.obs.section("cell", key=spec.key, workload=spec.workload,
                              technique=spec.technique_name,
                              attempt=self.attempt):
            return execute_spec(spec, obs=self.obs, progress=progress)

    def snapshot(self, status: str) -> dict[str, Any] | None:
        """The JSON-ready telemetry payload; never raises (a telemetry
        bug must not turn a good cell into a failed one)."""
        if self.obs is None:
            return None
        try:
            return self._snapshot(status)
        except Exception:        # pragma: no cover - defensive
            return None

    def _snapshot(self, status: str) -> dict[str, Any]:
        user, system, max_rss = _rusage()
        cpu_user = round(user - self._cpu0[0], 6)
        cpu_system = round(system - self._cpu0[1], 6)
        obs = self.obs
        obs.trace.close()
        payload: dict[str, Any] = {
            "v": TELEMETRY_VERSION,
            "pid": os.getpid(),
            "status": status,
            "key": self.spec.key,
            "workload": self.spec.workload,
            "technique": self.spec.technique_name,
            "attempt": self.attempt,
            "cpu_user_s": cpu_user,
            "cpu_system_s": cpu_system,
            "cpu_s": round(cpu_user + cpu_system, 6),
            "max_rss_kib": max_rss,
            "spans": obs.profile.spans,
            "metrics": obs.registry.typed_snapshot(),
            "trace_events": list(obs.trace.events),
            "trace_dropped": obs.trace.dropped,
        }
        if obs.measure_cycles:
            payload["measure_cycles"] = dict(obs.measure_cycles)
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


def aggregate_metrics(payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """Merged typed metric snapshot over every payload carrying one."""
    return merge_typed_snapshots(
        [t["metrics"] for t in payloads if t.get("metrics")])


def resource_summary(payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """Totals of the per-cell resource samples: CPU seconds sum, RSS
    takes the high-water mark (inline cells share one watermark)."""
    cpu = sum(t.get("cpu_s", 0.0) for t in payloads)
    rss = max((t.get("max_rss_kib", 0) for t in payloads), default=0)
    return {"cells": len(payloads), "cpu_s": round(cpu, 6),
            "max_rss_kib": rss,
            "pids": sorted({t["pid"] for t in payloads if "pid" in t})}


def _rebase_sim_events(events: list[dict[str, Any]],
                       measure: dict[str, Any] | None,
                       measure_cycles: dict[str, float],
                       ) -> list[dict[str, Any]]:
    """Map cycle-time trace events affinely from the measured window's
    cycle range onto the wall range of its *measure* span, so a worker's
    sim-side tail renders inside that span on the merged timeline, each
    event at the same fraction of the span as its cycle is of the
    window."""
    if not events or not measure or not measure_cycles:
        return []
    wall_lo = measure["start"] * 1e6
    cycle_lo = measure_cycles["start"] * TICKS_PER_CYCLE
    scale = (max(measure["end"] * 1e6 - wall_lo, 1.0)
             / max(measure_cycles["end"] * TICKS_PER_CYCLE - cycle_lo, 1.0))
    out = []
    for ev in events:
        if not isinstance(ev.get("ts"), (int, float)):
            continue
        ev = dict(ev)
        ev["ts"] = wall_lo + (ev["ts"] - cycle_lo) * scale
        if isinstance(ev.get("dur"), (int, float)):
            ev["dur"] = max(ev["dur"] * scale, 0.01)
        out.append(ev)
    return out


def build_exec_trace(payloads: list[dict[str, Any]],
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
    cells = Counter(t["pid"] for t in payloads)
    for telemetry in payloads:
        pid = telemetry["pid"]
        label = (f"worker {pid} ({cells[pid]} "
                 f"cell{'' if cells[pid] == 1 else 's'})")
        spans = telemetry.get("spans") or []
        events = spans_to_trace_events(spans, pid=pid, tid=SPAN_TID)
        measure = next((s for s in spans if s.get("name") == "measure"),
                       None)
        events += _rebase_sim_events(telemetry.get("trace_events") or [],
                                     measure,
                                     telemetry.get("measure_cycles") or {})
        processes.append({"pid": pid, "label": label, "events": events})
    return build_multiprocess_trace(processes)

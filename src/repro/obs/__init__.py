"""Simulator-wide observability: probe bus, metrics, logs, traces, live
progress.

The pieces (design rationale in ``docs/observability.md``):

* :mod:`repro.obs.probes`   — named probe points with near-zero-cost no-op
  dispatch when nothing subscribes;
* :mod:`repro.obs.metrics`  — hierarchical counters / gauges / log2
  histograms that snapshot to plain dicts, with typed snapshots that
  merge deterministically across processes; a run's counters are read
  off the simulator's stats objects, its histograms fed by probes;
* :mod:`repro.obs.runlog`   — JSONL run records, and
  :class:`SelfProfile`, the one phase timer: each timed section is one
  span dict on ``time.monotonic``, the record's ``profile`` and the
  execution telemetry's spans alike;
* :mod:`repro.obs.export`   — Chrome trace-event JSON for Perfetto,
  including span slices and the one-track-per-worker-pid multi-process
  merge;
* :mod:`repro.obs.progress` — in-flight progress frames (plain dicts)
  from the core run loops.

:class:`RunObservation` bundles them for one simulator run and is what
``harness.runner.run(..., obs=...)`` and the CLI flags
(``--jsonl`` / ``--chrome-trace``, ``python -m repro stats``) drive.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import (
    ChromeTraceBuilder,
    build_multiprocess_trace,
    spans_to_trace_events,
    validate_trace,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    install_exec_metrics,
    install_standard_metrics,
    merge_typed_snapshots,
    read_stats_counters,
    typed_to_plain,
)
from repro.obs.probes import Probe, ProbeBus, Subscription, default_bus
from repro.obs.progress import ProgressReporter, advancing
from repro.obs.runlog import (
    RunLog,
    SelfProfile,
    make_record,
)

__all__ = [
    "ChromeTraceBuilder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Probe",
    "ProbeBus",
    "ProgressReporter",
    "RunLog",
    "RunObservation",
    "SelfProfile",
    "Subscription",
    "advancing",
    "build_multiprocess_trace",
    "default_bus",
    "install_exec_metrics",
    "install_standard_metrics",
    "make_record",
    "merge_typed_snapshots",
    "spans_to_trace_events",
    "typed_to_plain",
    "validate_trace",
    "write_trace",
]


class RunObservation:
    """Observability bundle for one simulator run.

    Create one, pass it to :func:`repro.harness.runner.run` via ``obs=``;
    the runner wires its private probe bus into every component, attaches
    the event collectors when the *measured* window starts (warmup stays
    unobserved, matching the stats windows), reads the window's counters
    off the simulator's stats objects when it closes, and finalises
    outputs when the run ends.  After the run::

        obs.metrics_snapshot()   # deterministic metric dict
        obs.record               # the JSONL record that was (or would be)
                                 # appended
    """

    def __init__(self, *, chrome_trace: str | None = None,
                 jsonl: str | None = None) -> None:
        self.bus = ProbeBus()
        self.registry = MetricsRegistry()
        self.chrome_trace_path = chrome_trace
        self.trace = (ChromeTraceBuilder()
                      if chrome_trace is not None else None)
        self.jsonl_path = jsonl
        self.profile = SelfProfile()
        self.record: dict[str, Any] | None = None
        self._subs: list[Subscription] = []
        self._core: Any = None

    def section(self, name: str, **attrs: Any):
        """Time one phase (a context manager): the one way a phase gets
        timed, recorded once as a span on :attr:`profile`."""
        return self.profile.section(name, **attrs)

    def begin_measure(self, core: Any) -> None:
        """Open the measured window of *core* (called by the runner after
        warmup, once the stats objects are reset): attach the event
        collectors."""
        if self._core is not None:
            return
        self._core = core
        self._subs = install_standard_metrics(self.bus, self.registry)
        if self.trace is not None:
            self.trace.attach(self.bus)

    def end_measure(self) -> None:
        """Close the window, also when it ends in an exception: read its
        counters off the stats objects and detach the collectors."""
        if self._core is None:
            return
        read_stats_counters(self.registry, self._core)
        self._core = None
        for sub in self._subs:
            sub.cancel()
        self._subs = []
        if self.trace is not None:
            self.trace.detach()

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def finalize(self, context: dict[str, Any],
                 result: Any = None) -> dict[str, Any]:
        """Build the run record and write any requested outputs."""
        if self.trace is not None and self.chrome_trace_path is not None:
            self.trace.write(self.chrome_trace_path)
        record = make_record(
            "run",
            **context,
            result=(result.to_dict() if result is not None else None),
            metrics=self.metrics_snapshot(),
            profile=self.profile.snapshot(),
        )
        if self.jsonl_path is not None:
            RunLog(self.jsonl_path).append(record)
        self.record = record
        return record

"""Resilient experiment execution: fault-isolated parallel runs, watchdog
fences, retry/resume journals, and seeded fault injection.

The pieces (design rationale in ``docs/resilience.md``):

* :mod:`repro.exec.spec`     — :class:`RunSpec` cells, deterministic config
  hashing, and the :class:`ResultView` that makes journaled result dicts
  look like live ``SimResult`` objects;
* :mod:`repro.exec.failures` — the ``crash`` / ``hang`` /
  ``invalid-config`` failure taxonomy (:class:`RunFailure`);
* :mod:`repro.exec.journal`  — the JSONL retry/resume checkpoint;
* :mod:`repro.exec.faults`   — seeded, deterministic fault injection so
  the resilience paths are themselves testable;
* :mod:`repro.exec.executor` — :func:`run_cells`, the executor every
  sweep and figure routes through; :class:`WorkerPool`, the warm
  worker pool that isolates cells for it and for ``repro serve``; and
  :class:`OutcomeSink`, the retry decision, probes and journal records
  both settle cells through;
* :mod:`repro.exec.telemetry` — cross-process telemetry: per-cell
  phase-span / metric / trace-tail / rusage capture shipped over the
  result pipe, and the deterministic parent-side merge (see
  ``docs/observability.md``).

The simulator-side guard lives in :mod:`repro.cores.base`:
:class:`SimulationError` is what the watchdog fence raises, re-exported
here because the executor is where it gets classified.
"""

from repro.cores.base import SimulationError
from repro.exec.executor import (
    CellOutcome,
    Completion,
    ExecConfig,
    ExecReport,
    OutcomeSink,
    WorkerPool,
    run_cells,
)
from repro.exec.failures import (
    CRASH,
    FAILURE_KINDS,
    HANG,
    INVALID_CONFIG,
    QUARANTINED,
    RunFailure,
)
from repro.exec.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedHang,
    parse_fault,
)
from repro.exec.journal import RunJournal
from repro.exec.spec import ResultView, RunSpec, config_key, result_metric
from repro.exec.telemetry import (
    CellCapture,
    TelemetryConfig,
    aggregate_metrics,
    build_exec_trace,
    resource_summary,
)

__all__ = [
    "CRASH",
    "CellCapture",
    "CellOutcome",
    "Completion",
    "ExecConfig",
    "ExecReport",
    "FAILURE_KINDS",
    "FaultPlan",
    "FaultSpec",
    "HANG",
    "INVALID_CONFIG",
    "QUARANTINED",
    "InjectedCrash",
    "InjectedHang",
    "OutcomeSink",
    "ResultView",
    "RunFailure",
    "RunJournal",
    "RunSpec",
    "SimulationError",
    "TelemetryConfig",
    "WorkerPool",
    "aggregate_metrics",
    "build_exec_trace",
    "config_key",
    "parse_fault",
    "resource_summary",
    "result_metric",
    "run_cells",
]

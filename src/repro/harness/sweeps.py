"""Generic parameter-sweep utility over techniques and memory knobs.

The per-figure functions in :mod:`repro.harness.experiments` hard-code the
paper's sweeps; this module offers the general tool a user extending the
study would reach for::

    from repro.harness.sweeps import sweep, SweepAxis

    grid = sweep(
        workloads=("PR_KR", "Camel"),
        base="svr16",
        axes=[SweepAxis("memory.l1_mshrs", (4, 8, 16)),
              SweepAxis("svr.vector_length", (8, 32))],
        metric="ipc",
    )

Axis paths address the :class:`TechniqueConfig` tree: ``memory.<field>``,
``svr.<field>``, ``core_config.<field>`` or a top-level field.  The result
maps each axis-value combination to the harmonic-mean metric over the
workloads, normalised to the in-order baseline when ``normalise=True``.

Every cell routes through the resilient executor
(:func:`repro.exec.run_cells`): pass an
:class:`~repro.exec.ExecConfig` to fan cells out over isolated worker
processes, bound each with a wall-clock timeout, retry transient
failures, journal completed cells for ``--resume``, and inject seeded
faults.  A cell that still fails is *salvaged*: the sweep completes, the
combo's value becomes ``None`` (rendered as ``FAILED``), and the
structured :class:`~repro.exec.RunFailure` records ride along on the
:class:`SweepReport`.

With ``ExecConfig(telemetry=TelemetryConfig())`` every cell additionally
ships spans, metric snapshots and resource samples back to the parent;
the :class:`SweepReport` then exposes the merged view —
``merged_metrics()``, ``resources()``, and ``trace()`` (one Perfetto
process track per worker pid).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.exec import ExecConfig, ExecReport, RunFailure, RunSpec, run_cells
from repro.exec.failures import INVALID_CONFIG
from repro.harness.report import harmonic_mean
from repro.harness.runner import TechniqueConfig, technique


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dotted config path and its values."""

    path: str
    values: tuple

    def __init__(self, path: str, values: Sequence) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "values", tuple(values))


def _apply(config: TechniqueConfig, path: str, value) -> TechniqueConfig:
    """Return a copy of *config* with the dotted *path* set to *value*."""
    head, _, rest = path.partition(".")
    if not rest:
        if not hasattr(config, head):
            raise ValueError(f"unknown config field: {path!r}")
        return replace(config, **{head: value})
    sub = getattr(config, head, None)
    if sub is None:
        raise ValueError(f"{config.name} has no {head!r} to sweep "
                         f"(path {path!r})")
    if not hasattr(sub, rest):
        raise ValueError(f"unknown config field: {path!r}")
    return replace(config, **{head: replace(sub, **{rest: value})})


@dataclass
class SweepReport:
    """Full outcome of one sweep: values plus structured failures.

    ``values`` maps each axis combination to its aggregate metric, or
    ``None`` when every contributing cell failed (the explicit
    missing-cell marker rendered by :func:`render_sweep`).
    """

    values: dict[tuple, float | None]
    axes: tuple[SweepAxis, ...]
    metric: str
    failures: list[RunFailure] = field(default_factory=list)
    exec_report: ExecReport | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    # -- telemetry passthrough (ExecConfig.telemetry must be set) -----------

    def telemetry_records(self) -> list[dict]:
        """Per-cell telemetry payloads, sorted by cell key."""
        if self.exec_report is None:
            return []
        return self.exec_report.telemetry_records()

    def merged_metrics(self) -> dict:
        """Deterministically merged worker metric snapshots."""
        if self.exec_report is None:
            return {}
        return self.exec_report.merged_metrics()

    def resources(self) -> dict:
        """CPU/RSS totals over all cells that carried a sample."""
        if self.exec_report is None:
            return {}
        return self.exec_report.resources()

    def trace(self) -> dict:
        """Merged multi-process Chrome/Perfetto trace of the sweep."""
        if self.exec_report is None:
            return {"traceEvents": []}
        return self.exec_report.trace()


def _combo_name(base: TechniqueConfig, axes: Sequence[SweepAxis],
                combo: tuple) -> str:
    return f"{base.name}@" + ",".join(
        f"{a.path}={v}" for a, v in zip(axes, combo))


def sweep_report(workloads: Sequence[str], base: TechniqueConfig | str,
                 axes: Sequence[SweepAxis], metric: str = "ipc",
                 scale: str = "bench", normalise: bool = True,
                 exec_config: ExecConfig | None = None) -> SweepReport:
    """Run the full cross product of *axes* through the resilient
    executor and aggregate *metric*; see :func:`sweep` for the simple
    wrapper returning just the value grid."""
    if isinstance(base, str):
        base = technique(base)
    if not axes:
        raise ValueError("need at least one sweep axis")
    axes = tuple(axes)
    exec_config = exec_config or ExecConfig()

    # Build every cell spec up front.  A combo whose configuration is
    # rejected at construction (negative vector length, ...) becomes a
    # structured invalid-config failure rather than killing the sweep.
    combos = list(itertools.product(*(axis.values for axis in axes)))
    combo_cfgs: dict[tuple, TechniqueConfig] = {}
    invalid: dict[tuple, RunFailure] = {}
    for combo in combos:
        name = _combo_name(base, axes, combo)
        try:
            config = base
            for axis, value in zip(axes, combo):
                config = _apply(config, axis.path, value)
            combo_cfgs[combo] = replace(config, name=name)
        except ValueError as exc:
            if "unknown config field" in str(exc) or "to sweep" in str(exc):
                raise     # a mistyped axis path poisons every combo
            invalid[combo] = RunFailure(
                key="", workload="*", technique=name,
                kind=INVALID_CONFIG, message=str(exc))

    baseline_specs: dict[str, RunSpec] = {}
    if normalise:
        baseline_specs = {w: RunSpec.make(w, "inorder", scale=scale)
                          for w in workloads}
    cell_specs: dict[tuple, dict[str, RunSpec]] = {
        combo: {w: RunSpec(workload=w, tech=cfg, scale=scale)
                for w in workloads}
        for combo, cfg in combo_cfgs.items()}

    all_specs = list(baseline_specs.values())
    for per_workload in cell_specs.values():
        all_specs.extend(per_workload.values())
    report = run_cells(all_specs, exec_config)

    baselines = {w: report.result_for(s)
                 for w, s in baseline_specs.items()}
    values: dict[tuple, float | None] = {}
    for combo in combos:
        if combo in invalid:
            values[combo] = None
            continue
        samples = []
        for w in workloads:
            view = report.result_for(cell_specs[combo][w])
            if view is None:
                continue
            value = view.metric(metric)
            if normalise:
                base_view = baselines.get(w)
                if base_view is None:
                    continue      # baseline itself failed
                base_value = base_view.metric(metric)
                value = value / base_value if base_value else 0.0
            samples.append(value)
        if not samples:
            values[combo] = None
        elif all(s > 0 for s in samples):
            values[combo] = harmonic_mean(samples)
        else:
            values[combo] = sum(samples) / len(samples)

    failures = list(invalid.values()) + report.failures
    return SweepReport(values=values, axes=axes, metric=metric,
                       failures=failures, exec_report=report)


def sweep(workloads: Sequence[str], base: TechniqueConfig | str,
          axes: Sequence[SweepAxis], metric: str = "ipc",
          scale: str = "bench", normalise: bool = True,
          exec_config: ExecConfig | None = None) -> dict[tuple, float]:
    """Run the full cross product of *axes* and aggregate *metric*.

    ``metric`` is any exported scalar of
    :class:`~repro.harness.runner.SimResult` (``ipc``, ``cpi``,
    ``energy_per_instruction_nj``, ``dram_lines``).  Returns
    ``{(v1, v2, ...): value}`` keyed in axis order; a combination whose
    cells all failed under a salvaging :class:`~repro.exec.ExecConfig`
    maps to ``None``.
    """
    return sweep_report(workloads, base, axes, metric=metric, scale=scale,
                        normalise=normalise,
                        exec_config=exec_config).values


def render_sweep(result: dict[tuple, float | None],
                 axes: Sequence[SweepAxis], precision: int = 3,
                 failures: Sequence[RunFailure] | None = None) -> str:
    """Aligned text rendering of a sweep result.

    Failed combinations (value ``None``) render as ``FAILED``; pass the
    sweep's *failures* to append the structured failure records.
    """
    header = "  ".join(f"{axis.path:>20}" for axis in axes)
    lines = [header + f"  {'value':>10}"]
    for combo, value in result.items():
        cells = "  ".join(f"{str(v):>20}" for v in combo)
        if value is None:
            lines.append(cells + f"  {'FAILED':>10}")
        else:
            lines.append(cells + f"  {value:>10.{precision}f}")
    if failures:
        lines.append("")
        lines.append(f"{len(failures)} failed cell(s):")
        for failure in failures:
            lines.append(f"  - {failure}")
    return "\n".join(lines)

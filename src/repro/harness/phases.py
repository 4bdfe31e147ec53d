"""Phase-behaviour sampling: per-window metrics over a long run.

`run_phases` samples IPC, DRAM traffic and SVR activity in fixed
instruction windows, exposing time-varying behaviour that single-number
results hide — most usefully the accuracy monitor's ban/retry cycle
(Section IV-A7) and BFS-style frontier phases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.runner import TechniqueConfig, build_core, technique
from repro.workloads.registry import build_workload


@dataclass(slots=True)
class PhaseSample:
    """Metrics for one instruction window."""

    index: int
    instructions: int
    ipc: float
    dram_lines: int
    svr_rounds: int
    svr_lanes: int
    svr_banned: bool

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc if self.ipc else 0.0


def run_phases(workload_name: str, tech: TechniqueConfig | str = "svr16",
               scale: str = "bench", warmup: int = 2_000,
               windows: int = 20, window: int = 2_000) -> list[PhaseSample]:
    """Sample *windows* consecutive windows of *window* instructions."""
    if isinstance(tech, str):
        tech = technique(tech)
    if tech.core != "inorder":
        raise ValueError("phase sampling supports the in-order core only")
    core = build_core(build_workload(workload_name, scale), tech)
    hierarchy = core.hierarchy
    svr = core.svr
    core.run(warmup)

    samples: list[PhaseSample] = []
    for index in range(windows):
        core.reset_stats()
        hierarchy.reset_stats()
        if svr is not None:
            svr.reset_stats()
        stats = core.run(window)
        if stats.instructions == 0:
            break
        samples.append(PhaseSample(
            index=index,
            instructions=stats.instructions,
            ipc=stats.ipc,
            dram_lines=hierarchy.dram.accesses,
            svr_rounds=svr.stats.prm_rounds if svr else 0,
            svr_lanes=svr.stats.svi_lanes if svr else 0,
            svr_banned=svr.monitor.banned if svr else False,
        ))
        if core.halted:
            break
    return samples


def render_phases(samples: list[PhaseSample]) -> str:
    """Text table plus an IPC sparkline."""
    from repro.harness.charts import sparkline

    if not samples:
        return "(no samples)"
    lines = [f"{'win':>4} {'IPC':>7} {'DRAM':>6} {'rounds':>7} "
             f"{'lanes':>7} {'banned':>7}"]
    for s in samples:
        lines.append(f"{s.index:>4} {s.ipc:7.3f} {s.dram_lines:>6} "
                     f"{s.svr_rounds:>7} {s.svr_lanes:>7} "
                     f"{'yes' if s.svr_banned else '':>7}")
    lines.append("IPC trend: " + sparkline([s.ipc for s in samples]))
    return "\n".join(lines)

"""Instruction-level trace capture — a debugging microscope for the model.

``capture`` runs a workload on an in-order core (with or without SVR) and
records one :class:`TraceRecord` per committed instruction: issue time,
completion time, the memory level that served it, and the SVR activity it
triggered.  ``render`` turns a window of records into a readable timeline,
which is how the examples and docs illustrate where SVR's overlap comes
from.

Since the observability layer landed this module is a thin renderer over
the probe bus (:mod:`repro.obs.probes`): records are assembled from
``core.commit`` / ``svr.svi`` / ``svr.prm_enter`` / ``svr.prm_exit``
events on a private bus rather than from a core-specific callback.  For
timeline views beyond ASCII — any core, every component, zoomable — use
the Chrome-trace exporter (:mod:`repro.obs.export`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.runner import TechniqueConfig, build_core, technique
from repro.obs.probes import ProbeBus
from repro.workloads.registry import build_workload


@dataclass(slots=True)
class TraceRecord:
    """Timing of one committed instruction."""

    index: int
    pc: int
    op: str
    issue: float
    completion: float
    level: str | None          # 'l1' | 'l2' | 'dram' for memory ops
    svi_lanes: int             # transient lanes generated at this instr
    in_prm: bool

    @property
    def latency(self) -> float:
        return self.completion - self.issue


def capture(workload_name: str, tech: TechniqueConfig | str = "svr16",
            scale: str = "tiny", warmup: int = 500,
            count: int = 200) -> list[TraceRecord]:
    """Run *workload_name* and capture *count* post-warmup records."""
    if isinstance(tech, str):
        tech = technique(tech)
    if tech.core != "inorder":
        raise ValueError("tracing supports the in-order core only")
    bus = ProbeBus()
    core = build_core(build_workload(workload_name, scale), tech, bus=bus)
    core.run(warmup)

    records: list[TraceRecord] = []
    # SVI / PRM state accumulated between commits; the SVR unit emits its
    # events *before* the core's commit event for the same instruction.
    state = {"lanes": 0, "in_prm": False}

    def on_svi(_name, ev):
        state["lanes"] += ev["lanes"]

    def on_prm_enter(_name, _ev):
        state["in_prm"] = True

    def on_prm_exit(_name, _ev):
        state["in_prm"] = False

    def on_commit(_name, ev):
        records.append(TraceRecord(
            index=len(records),
            pc=ev["pc"],
            op=ev["op"],
            issue=ev["issue"],
            completion=ev["completion"],
            level=ev["level"],
            svi_lanes=state["lanes"],
            in_prm=state["in_prm"],
        ))
        state["lanes"] = 0

    subs = [bus.subscribe("svr.svi", on_svi),
            bus.subscribe("svr.prm_enter", on_prm_enter),
            bus.subscribe("svr.prm_exit", on_prm_exit),
            bus.subscribe("core.commit", on_commit)]
    core.run(count)
    for sub in subs:
        sub.cancel()
    return records


def render(records: list[TraceRecord], width: int = 60) -> str:
    """ASCII timeline: one row per instruction, '#' spans issue..completion."""
    if not records:
        return "(empty trace)"
    start = min(r.issue for r in records)
    end = max(r.completion for r in records)
    span = max(1.0, end - start)
    lines = [f"cycles {start:.0f}..{end:.0f} "
             f"({span:.0f} cycles, {len(records)} instructions)"]
    for r in records:
        left = min(int((r.issue - start) / span * width), width - 1)
        right = max(left + 1,
                    min(int((r.completion - start) / span * width), width))
        bar = " " * left + "#" * (right - left)
        level = r.level or ""
        svr_mark = f" +{r.svi_lanes}sv" if r.svi_lanes else ""
        prm = "R" if r.in_prm else " "
        lines.append(f"{r.index:>4} {prm} {r.op:<7} {level:<5} "
                     f"|{bar:<{width}}|{svr_mark}")
    return "\n".join(lines)


def summarize(records: list[TraceRecord]) -> dict[str, float]:
    """Aggregate a trace window: latency by level, SVI density, PRM share."""
    if not records:
        return {}
    loads = [r for r in records if r.level is not None]
    dram = [r for r in loads if r.level == "dram"]
    out = {
        "instructions": float(len(records)),
        "span_cycles": max(r.completion for r in records)
        - min(r.issue for r in records),
        "memory_ops": float(len(loads)),
        "dram_ops": float(len(dram)),
        "svi_lanes": float(sum(r.svi_lanes for r in records)),
        "prm_share": sum(1 for r in records if r.in_prm) / len(records),
    }
    if dram:
        out["mean_dram_latency"] = (sum(r.latency for r in dram)
                                    / len(dram))
    return out

"""Technique presets and the single-run driver.

A *technique* is a named bundle of core type, memory-system knobs and (for
SVR) an :class:`~repro.svr.config.SVRConfig` — the columns of Figs 1/11/12.
``run`` builds a fresh workload, executes a warmup region (the paper skips
initialisation and simulates a region of interest), then measures a window
and returns a :class:`SimResult` with timing, memory, prefetching and
energy numbers.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.cores.base import CoreConfig, CoreStats, SimulationError
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.memory.hierarchy import HierarchyStats, MemoryConfig, MemoryHierarchy
from repro.svr.config import SVRConfig
from repro.svr.unit import ScalarVectorUnit, SvrStats
from repro.svr.vr import VectorRunaheadUnit, VrStats
from repro.workloads.base import Workload
from repro.workloads.registry import build_workload

# The eight columns of Figs 1, 11 and 12.
MAIN_TECHNIQUES = ("inorder", "imp", "ooo", "svr8", "svr16", "svr32",
                   "svr64", "svr128")

CORE_KINDS = ("inorder", "ooo")

# Watchdog fence installed by :func:`run` when the technique does not pin
# its own: generous enough that no legitimate configuration trips it (the
# worst DRAM-bound in-order CPI in this model is ~200), tight enough that
# a runaway timing bug raises instead of spinning forever.
WATCHDOG_CPI_CEILING = 4096.0
WATCHDOG_SLACK_CYCLES = 100_000.0


@dataclass
class TechniqueConfig:
    """One evaluated configuration.

    Invalid combinations are rejected at construction (with the offending
    field named) rather than deep inside :func:`run`, so a bad sweep cell
    is classified as ``invalid-config`` before any simulation starts.
    """

    name: str
    core: str = "inorder"                 # 'inorder' | 'ooo'
    svr: SVRConfig | None = None
    vr_length: int | None = None          # Vector Runahead on the OoO core
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    core_config: CoreConfig = field(default_factory=CoreConfig)

    def __post_init__(self) -> None:
        if self.core not in CORE_KINDS:
            raise ValueError(
                f"TechniqueConfig.core must be one of {CORE_KINDS}, "
                f"got {self.core!r} (technique {self.name!r})")
        if self.svr is not None and self.core != "inorder":
            raise ValueError(
                f"TechniqueConfig.svr requires core='inorder', got "
                f"core={self.core!r} (technique {self.name!r})")
        if self.vr_length is not None:
            if self.core != "ooo":
                raise ValueError(
                    f"TechniqueConfig.vr_length requires core='ooo', got "
                    f"core={self.core!r} (technique {self.name!r})")
            if self.vr_length < 1:
                raise ValueError(
                    f"TechniqueConfig.vr_length must be >= 1, got "
                    f"{self.vr_length} (technique {self.name!r})")

    def with_memory(self, **overrides: Any) -> "TechniqueConfig":
        return replace(self, memory=replace(self.memory, **overrides))

    def with_svr(self, **overrides: Any) -> "TechniqueConfig":
        if self.svr is None:
            raise ValueError(f"{self.name} has no SVR to override")
        return replace(self, svr=replace(self.svr, **overrides))

    def to_dict(self) -> dict:
        """JSON-ready export of the full configuration (run-log records)."""
        out = asdict(self)
        if self.svr is not None:
            out["svr"]["policy"] = self.svr.policy.name
            out["svr"]["recycling"] = self.svr.recycling.name
        return out


def technique(name: str, **svr_overrides: Any) -> TechniqueConfig:
    """Build a preset: 'inorder', 'imp', 'ooo', or 'svrN' (N = 8..128).

    Keyword overrides apply to the SVR config (e.g.
    ``technique('svr16', policy=LoopBoundPolicy.MAXLENGTH)``).
    """
    if name == "inorder":
        return TechniqueConfig("inorder", core="inorder")
    if name == "ooo":
        return TechniqueConfig("ooo", core="ooo")
    if name == "vr" or name.startswith("vr"):
        length = int(name[2:]) if len(name) > 2 else 64
        return TechniqueConfig(name, core="ooo", vr_length=length)
    if name == "imp":
        return TechniqueConfig("imp", core="inorder",
                               memory=MemoryConfig(imp_prefetcher=True))
    if name.startswith("svr"):
        length = int(name[3:])
        svr = SVRConfig(vector_length=length, **svr_overrides)
        return TechniqueConfig(name, core="inorder", svr=svr)
    raise ValueError(f"unknown technique: {name!r}")


@dataclass
class SimResult:
    """Everything a figure needs from one run."""

    workload: str
    technique: str
    core: CoreStats
    hierarchy: HierarchyStats
    svr: SvrStats | None
    vr: VrStats | None
    energy: EnergyBreakdown
    branch_accuracy: float
    dram_lines: int
    svr_accuracy: float | None = None

    @property
    def cpi(self) -> float:
        return self.core.cpi

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def energy_per_instruction_nj(self) -> float:
        return self.energy.per_instruction_nj(self.core.instructions)

    def cpi_stack(self) -> dict[str, float]:
        return self.core.cpi_stack()

    def to_dict(self) -> dict:
        """Structured export (JSON-ready) of every measured quantity."""
        out = {
            "workload": self.workload,
            "technique": self.technique,
            "instructions": self.core.instructions,
            "cycles": self.core.cycles,
            "cpi": self.cpi,
            "ipc": self.ipc,
            "cpi_stack": self.cpi_stack(),
            "energy_nj_per_instr": self.energy_per_instruction_nj,
            "energy_breakdown_j": self.energy.as_dict(),
            "dram_lines": self.dram_lines,
            "branch_accuracy": self.branch_accuracy,
            "loads": self.core.loads,
            "stores": self.core.stores,
            "branches": self.core.branches,
            "mispredicts": self.core.mispredicts,
            "l1_load_hits": self.hierarchy.l1_load_hits,
            "l2_load_hits": self.hierarchy.l2_load_hits,
            "dram_loads": self.hierarchy.dram_loads,
            "prefetches_issued": dict(self.hierarchy.prefetches_issued),
            "prefetch_useful": dict(self.hierarchy.prefetch_useful),
            "prefetch_useless": dict(self.hierarchy.prefetch_useless),
            "dram_fetches": dict(self.hierarchy.dram_fetches),
        }
        if self.svr is not None:
            out["svr"] = {
                "prm_rounds": self.svr.prm_rounds,
                "svi_lanes": self.svr.svi_lanes,
                "svi_load_lanes": self.svr.svi_load_lanes,
                "masked_lanes": self.svr.masked_lanes,
                "retargets": self.svr.retargets,
                "terminations": dict(self.svr.terminations),
                "accuracy": self.svr_accuracy,
            }
        if self.vr is not None:
            out["vr"] = {
                "episodes": self.vr.episodes,
                "transient_instructions": self.vr.transient_instructions,
                "prefetches": self.vr.prefetches,
            }
        return out

    def summary(self) -> str:
        """Multi-line human-readable summary of this run."""
        lines = [
            f"{self.workload} on {self.technique}:",
            f"  instructions {self.core.instructions}, "
            f"cycles {self.core.cycles:.0f}",
            f"  CPI {self.cpi:.3f}, IPC {self.ipc:.3f}",
            f"  energy {self.energy_per_instruction_nj:.3f} nJ/instr",
            f"  DRAM lines {self.dram_lines}, "
            f"branch accuracy {self.branch_accuracy:.1%}",
        ]
        if self.svr is not None:
            accuracy = ("n/a" if self.svr_accuracy is None
                        else f"{self.svr_accuracy:.1%}")
            lines.append(
                f"  SVR: {self.svr.prm_rounds} rounds, "
                f"{self.svr.svi_lanes} SVI lanes, "
                f"accuracy {accuracy}")
        stack = ", ".join(f"{k}={v:.2f}" for k, v in self.cpi_stack().items()
                          if v > 0.005)
        lines.append(f"  CPI stack: {stack}")
        return "\n".join(lines)


def build_core(workload: Workload, tech: TechniqueConfig, bus=None):
    """Wire *tech*'s hierarchy, core and SVR / VR unit over *workload*.

    The one mapping from a :class:`TechniqueConfig` to simulator objects:
    :func:`run`, multicore co-simulation, phase sampling and trace capture
    all build through it.  The returned core carries its hierarchy
    (``core.hierarchy``) and its runahead unit (``core.svr`` on the
    in-order core, ``core.vr`` on the out-of-order core; ``None`` when
    the technique has none).
    """
    hierarchy = MemoryHierarchy(workload.memory, tech.memory, bus=bus)
    if tech.core == "ooo":
        vr_unit = (VectorRunaheadUnit(tech.vr_length)
                   if tech.vr_length is not None else None)
        return OutOfOrderCore(workload.program, workload.memory, hierarchy,
                              tech.core_config, vr=vr_unit, bus=bus)
    svr_unit = (ScalarVectorUnit(tech.svr, bus=bus)
                if tech.svr is not None else None)
    return InOrderCore(workload.program, workload.memory, hierarchy,
                       tech.core_config, svr=svr_unit, bus=bus)


# Default measurement windows per scale: (warmup, measure) instructions.
_WINDOWS = {"tiny": (1_000, 4_000), "bench": (8_000, 25_000),
            "default": (15_000, 60_000)}


def run(workload: str | Workload, tech: TechniqueConfig | str,
        scale: str = "bench", warmup: int | None = None,
        measure: int | None = None, obs=None, progress=None) -> SimResult:
    """Simulate one (workload, technique) pair and return its result.

    Pass a :class:`repro.obs.RunObservation` as *obs* to instrument the
    run: components emit on the observation's private probe bus, metric /
    trace collectors attach when the measured window starts (warmup stays
    unobserved, matching the stats), the window's counters are read off
    the stats objects when it closes (normally or by an exception), and
    the observation's JSONL record / Chrome trace are finalised before
    returning.

    Pass a :class:`repro.obs.ProgressReporter` as *progress* to stream
    in-flight frames (cycle, instructions, IPC-so-far, phase, episode
    count) while the core runs; with ``None`` (the default) the core run
    loop runs each window as one chunk and never samples.

    Unless the technique pins its own watchdog, a window-scaled
    ``watchdog_max_cycles`` fence is installed so a runaway simulation
    raises :class:`~repro.cores.base.SimulationError` (with workload /
    technique context) instead of hanging.
    """
    if isinstance(tech, str):
        tech = technique(tech)

    def _section(name: str):
        return obs.section(name) if obs is not None else nullcontext()

    bus = obs.bus if obs is not None else None
    with _section("build"):
        if isinstance(workload, str):
            workload = build_workload(workload, scale)
        default_warmup, default_measure = _WINDOWS.get(scale,
                                                       _WINDOWS["bench"])
        warmup = default_warmup if warmup is None else warmup
        measure = default_measure if measure is None else measure

        if (tech.core_config.watchdog_max_cycles is None
                and tech.core_config.watchdog_max_instructions is None):
            fence = (WATCHDOG_CPI_CEILING * (warmup + measure)
                     + WATCHDOG_SLACK_CYCLES)
            tech = replace(tech, core_config=replace(
                tech.core_config, watchdog_max_cycles=fence))

        core = build_core(workload, tech, bus=bus)

    hierarchy = core.hierarchy
    svr_unit = getattr(core, "svr", None)
    vr_unit = getattr(core, "vr", None)
    if progress is not None:
        progress.annotate(workload=workload.name, technique=tech.name,
                          target_instructions=warmup + measure)
    try:
        with _section("warmup"):
            if warmup > 0:
                if progress is not None:
                    progress.set_phase("warmup")
                core.run(warmup, progress)
        core.reset_stats()
        hierarchy.reset_stats()
        if svr_unit is not None:
            svr_unit.reset_stats()
        if vr_unit is not None:
            vr_unit.reset_stats()
        if obs is not None:
            obs.begin_measure(core)
        try:
            with _section("measure"):
                if progress is not None:
                    progress.set_phase("measure")
                    progress.sample(core, force=True)
                core.run(measure, progress)
        finally:
            if obs is not None:
                obs.end_measure()
    except SimulationError as exc:
        if exc.workload is None:
            exc.workload = workload.name
        if exc.technique is None:
            exc.technique = tech.name
        raise

    if progress is not None:
        progress.finish(core)
    stats = core.stats
    hstats = hierarchy.stats
    svr_stats = svr_unit.stats if svr_unit is not None else None
    l1_accesses = (hstats.loads + hstats.stores
                   + sum(hstats.prefetches_issued.values()))
    l2_accesses = hierarchy.l2.hits + hierarchy.l2.misses
    model = EnergyModel()
    energy = model.evaluate(
        core_kind=core.kind,
        cycles=stats.cycles,
        frequency_ghz=tech.core_config.frequency_ghz,
        instructions=stats.instructions,
        alu_ops=stats.alu_ops,
        fp_ops=stats.fp_ops,
        branches=stats.branches,
        l1_accesses=l1_accesses,
        l2_accesses=l2_accesses,
        dram_lines=hierarchy.dram.accesses,
        svi_ops=(svr_stats.svi_lanes if svr_stats
                 else (vr_unit.stats.transient_instructions
                       if vr_unit is not None else 0)),
        svr_table_accesses=svr_stats.table_accesses if svr_stats else 0,
        svr_state_kib=svr_unit.state_kib if svr_unit else 0.0,
        imp_prefetches=hstats.prefetches_issued["imp"],
        imp_enabled=tech.memory.imp_prefetcher,
    )
    result = SimResult(
        workload=workload.name,
        technique=tech.name,
        core=stats,
        hierarchy=hstats,
        svr=svr_stats,
        vr=vr_unit.stats if vr_unit is not None else None,
        energy=energy,
        branch_accuracy=core.predictor.accuracy,
        dram_lines=hierarchy.dram.accesses,
        svr_accuracy=hstats.accuracy("svr") if svr_unit is not None else None,
    )
    if obs is not None:
        obs.finalize(
            {"workload": workload.name, "technique": tech.name,
             "scale": scale, "warmup": warmup, "measure": measure,
             "config": tech.to_dict()},
            result=result)
    return result

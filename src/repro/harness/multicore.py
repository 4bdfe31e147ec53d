"""Multicore extension (paper Section VI-E, future work).

Fig 18 shows a single SVR core does not saturate memory bandwidth, and the
paper concludes that "SVR across multiple cores simultaneously would give
significant benefit".  This module tests that hypothesis: N cores, each
with a private cache hierarchy and TLB, share one DRAM model (bandwidth
and queueing), and are co-simulated by always stepping the core whose
local clock is furthest behind, so contention is temporally meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cores.base import CoreStats
from repro.harness.runner import TechniqueConfig, build_core, technique
from repro.workloads.registry import build_workload


@dataclass
class MulticoreResult:
    """Outcome of one shared-memory multicore run."""

    technique: str
    workloads: tuple[str, ...]
    per_core: list[CoreStats] = field(default_factory=list)
    dram_lines: int = 0
    dram_utilisation: float = 0.0

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    @property
    def aggregate_ipc(self) -> float:
        """Total committed instructions per (wall-clock) cycle."""
        span = max((s.cycles for s in self.per_core), default=0.0)
        if span <= 0:
            return 0.0
        return sum(s.instructions for s in self.per_core) / span

    @property
    def mean_cpi(self) -> float:
        cpis = [s.cpi for s in self.per_core if s.instructions]
        return sum(cpis) / len(cpis) if cpis else 0.0


def run_multicore(workloads, tech: TechniqueConfig | str,
                  scale: str = "bench", warmup: int = 5_000,
                  measure: int = 15_000) -> MulticoreResult:
    """Co-simulate one core per workload over a shared DRAM channel."""
    if isinstance(tech, str):
        tech = technique(tech)
    workloads = tuple(workloads)
    cores = []
    shared_dram = None
    for name in workloads:
        core = build_core(build_workload(name, scale), tech)
        hierarchy = core.hierarchy
        if shared_dram is None:
            shared_dram = hierarchy.dram
        else:
            # All hierarchies and page-table walkers share one channel.
            hierarchy.dram = shared_dram
            hierarchy.tlb._dram = shared_dram
        cores.append(core)

    def co_run(budget_per_core: int) -> None:
        """Step the laggard core until every core has spent its budget."""
        executed = [0] * len(cores)
        active = set(range(len(cores)))
        while active:
            lagger = min(active, key=lambda i: cores[i].now())
            if not cores[lagger].step() or executed[lagger] + 1 >= budget_per_core:
                active.discard(lagger)
            executed[lagger] += 1

    co_run(warmup)
    for core in cores:
        core.reset_stats()
        core.hierarchy.reset_stats()
    co_run(measure)

    result = MulticoreResult(tech.name, workloads)
    span = 0.0
    for core in cores:
        result.per_core.append(core.stats)
        span = max(span, core.stats.cycles)
    result.dram_lines = shared_dram.accesses
    result.dram_utilisation = shared_dram.utilisation(span)
    return result


def scaling_study(workload: str, techniques=("inorder", "svr16"),
                  core_counts=(1, 2, 4), scale: str = "bench",
                  measure: int = 12_000) -> dict[str, dict[int, float]]:
    """Aggregate-IPC scaling per technique and core count.

    Every core runs its own instance of *workload* (rate-mode, like
    SPECrate) against the shared channel.
    """
    out: dict[str, dict[int, float]] = {}
    for tech in techniques:
        series: dict[int, float] = {}
        for count in core_counts:
            result = run_multicore([workload] * count, tech, scale=scale,
                                   measure=measure)
            series[count] = result.aggregate_ipc
        out[tech] = series
    return out

"""The microbenchmark catalogue: hot paths of the simulator itself.

Nine benchmarks across five groups, registered with
:mod:`repro.bench.registry` at import time:

* ``core.*``  — in-order and out-of-order core stepping over a real
  workload (build + warmup in setup, only the measured window is timed);
* ``svr.*``   — the SVR unit driving PRM rounds on an in-order core;
* ``mem.*``   — the cache hierarchy, the TLB + page-table-walker pool and
  the DRAM interval scheduler, driven directly with synthetic streams;
* ``isa.*``   — the text assembler;
* ``e2e.*``   — whole simulation cells routed through
  :func:`repro.exec.run_cells`, so they inherit the resilient executor's
  kill fences and fault isolation (and measure its dispatch overhead).

Work sizes shrink under ``BenchContext.quick`` so ``repro bench --quick``
stays CI-friendly while exercising the identical code paths.
"""

from __future__ import annotations

from repro.bench.registry import BenchContext, Work, register
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.exec import RunSpec, run_cells
from repro.isa import assembler
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.memory.tlb import TlbHierarchy
from repro.svr.config import SVRConfig
from repro.svr.unit import ScalarVectorUnit
from repro.workloads.registry import build_workload

_WARMUP = 400


def _core_setup(ctx: BenchContext, workload: str, *,
                svr_length: int | None = None, ooo: bool = False):
    """Shared builder for the core-stepping benchmarks."""
    measure = 1_500 if ctx.quick else 6_000
    wl = build_workload(workload, "tiny")
    hierarchy = MemoryHierarchy(wl.memory)
    if ooo:
        core = OutOfOrderCore(wl.program, wl.memory, hierarchy)
    else:
        svr = (ScalarVectorUnit(SVRConfig(vector_length=svr_length))
               if svr_length is not None else None)
        core = InOrderCore(wl.program, wl.memory, hierarchy, svr=svr)
    core.run(_WARMUP)
    core.reset_stats()

    def rep() -> Work:
        core.run(measure)
        stats = core.stats
        return Work(units=stats.instructions, sim_cycles=stats.cycles,
                    instructions=stats.instructions)

    return rep


@register("core.inorder.step", group="core", unit="instructions",
          description="in-order core stepping (Camel, tiny scale)")
def _bench_inorder(ctx: BenchContext):
    return _core_setup(ctx, "Camel")


@register("core.ooo.step", group="core", unit="instructions",
          description="out-of-order core stepping (Camel, tiny scale)")
def _bench_ooo(ctx: BenchContext):
    return _core_setup(ctx, "Camel", ooo=True)


@register("svr.prm.rounds", group="svr", unit="instructions",
          description="in-order core + SVR16 unit: PRM rounds, SVI "
                      "issue, taint/stride training (Camel)")
def _bench_svr(ctx: BenchContext):
    return _core_setup(ctx, "Camel", svr_length=16)


@register("mem.cache.access", group="mem", unit="accesses",
          description="L1/L2/MSHR demand loads over a mixed "
                      "sequential/strided address stream")
def _bench_cache(ctx: BenchContext):
    accesses = 2_000 if ctx.quick else 8_000
    memory = MainMemory(capacity_bytes=1 << 22)
    base = memory.alloc_array([0] * 8_192)
    hierarchy = MemoryHierarchy(memory)

    def rep() -> Work:
        time = 0.0
        last = 0.0
        seed = 0x9E3779B9
        for i in range(accesses):
            if i % 4 == 3:
                # Pseudo-random far touch: L2/DRAM pressure.
                seed = (seed * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
                addr = base + (seed % 8_192) * 8
            else:
                addr = base + (i % 2_048) * 8
            outcome = hierarchy.load(addr, time, pc=4 * (i % 32))
            last = max(last, outcome.completion)
            time += 1.0
        return Work(units=accesses, sim_cycles=last)

    return rep


@register("mem.tlb.translate", group="mem", unit="translations",
          description="D-TLB/S-TLB lookups with page-table walks "
                      "through the DRAM model")
def _bench_tlb(ctx: BenchContext):
    translations = 2_000 if ctx.quick else 8_000
    tlb = TlbHierarchy(DramModel(), dtlb_entries=16, stlb_entries=64,
                       walkers=4)

    def rep() -> Work:
        time = 0.0
        last = 0.0
        for i in range(translations):
            page = (i * 7_919) % 4_096     # sweep far beyond both TLBs
            last = max(last, tlb.translate(page * 4_096, time))
            time += 2.0
        return Work(units=translations, sim_cycles=last)

    return rep


@register("mem.dram.schedule", group="mem", unit="accesses",
          description="DRAM busy-interval scheduling under heavy "
                      "bandwidth contention")
def _bench_dram(ctx: BenchContext):
    accesses = 3_000 if ctx.quick else 12_000
    dram = DramModel()

    def rep() -> Work:
        time = 0.0
        last = 0.0
        for _ in range(accesses):
            last = max(last, dram.access(time))
            time += 0.5               # oversubscribe the pipe
        return Work(units=accesses, sim_cycles=last)

    return rep


def _assembler_source() -> str:
    """A ~130-line synthetic kernel exercising labels, branches, loads."""
    blocks = []
    for block in range(8):
        blocks.append(f"""
        block{block}:
            li t0, {block}
            li t1, 64
            li t2, 0
        loop{block}:
            slli t3, t2, 3
            add t3, a0, t3
            ld t4, t3, 0
            add t0, t0, t4
            addi t2, t2, 1
            cmp_lt t5, t2, t1
            bnez t5, loop{block}
            st t0, a1, {8 * block}
        """)
    return "li a0, 0x10000\nli a1, 0x20000\n" + "".join(blocks) + "\nhalt\n"


@register("isa.assemble", group="isa", unit="instructions",
          description="text assembler over a 130-line synthetic kernel")
def _bench_assemble(ctx: BenchContext):
    repeats = 4 if ctx.quick else 16
    source = _assembler_source()

    def rep() -> Work:
        assembled = 0
        for _ in range(repeats):
            # Late-bound module attribute so a monkeypatched hot path is
            # measured (the regression-gate test relies on this).
            assembled += len(assembler.assemble(source, name="bench"))
        return Work(units=assembled)

    return rep


def _cell_setup(ctx: BenchContext, workload: str, technique: str):
    """End-to-end cell through the resilient executor."""
    spec = RunSpec.make(workload, technique, scale="tiny")

    def rep() -> Work:
        report = run_cells([spec], ctx.exec_config)
        outcome = report.outcomes[0]
        if not outcome.ok:
            raise RuntimeError(f"benchmark cell failed: {outcome.failure}")
        view = outcome.view
        return Work(units=view.instructions, sim_cycles=view.cycles,
                    instructions=view.instructions)

    return rep


@register("e2e.camel.svr16", group="e2e", unit="instructions",
          description="full Camel/svr16 tiny cell via exec.run_cells "
                      "(build + warmup + measure + export)")
def _bench_e2e_svr(ctx: BenchContext):
    return _cell_setup(ctx, "Camel", "svr16")


@register("e2e.prkr.inorder", group="e2e", unit="instructions",
          description="full PR_KR/inorder tiny cell via exec.run_cells")
def _bench_e2e_inorder(ctx: BenchContext):
    return _cell_setup(ctx, "PR_KR", "inorder")

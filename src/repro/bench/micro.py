"""The microbenchmark catalogue: seven hot paths of the simulator itself.

Each benchmark stays inside one layer of the traced ledger
(``perfbench/run.py --trace 1``), so its throughput moves only when
that layer's code does:

* ``core.*``  — in-order and out-of-order core stepping over a real
  workload (build + warmup in setup, only the measured window is timed);
* ``svr.*``   — the SVR unit driving PRM rounds on an in-order core;
* ``mem.*``   — the cache hierarchy, the TLB + page-table-walker pool and
  the DRAM interval scheduler, driven directly with synthetic streams;
* ``isa.*``   — the text assembler.

Whole cells are perfbench's to measure (``perfbench/run.py``); nothing
here times one end to end.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.isa import assembler
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.memory.tlb import TlbHierarchy
from repro.svr.config import SVRConfig
from repro.svr.unit import ScalarVectorUnit
from repro.workloads.registry import build_workload


@dataclass(frozen=True)
class Work:
    """What one repetition accomplished (the runner adds wall time).

    ``units`` is the benchmark's own progress measure (committed
    instructions, accesses, assembled instructions, ...) and is the basis
    of the throughput every benchmark reports.  ``sim_cycles`` /
    ``instructions`` feed the simulated-cycles-per-second and
    instructions-per-second metrics and are ``None`` for benchmarks with
    no simulated clock (the assembler).
    """

    units: float
    sim_cycles: float | None = None
    instructions: int | None = None


@dataclass(frozen=True)
class Benchmark:
    """One microbenchmark.  ``setup`` builds fresh state and returns the
    closure the runner times, so build cost never pollutes a repetition."""

    name: str                 # dotted id; the first part is its group
    unit: str                 # what Work.units counts
    description: str
    setup: Callable[[], Callable[[], Work]]

    @property
    def group(self) -> str:
        return self.name.partition(".")[0]


_WARMUP = 400
_MEASURE = 6_000


def _core_setup(*, svr_length: int | None = None, ooo: bool = False):
    """Shared builder for the core-stepping benchmarks (Camel, tiny)."""
    wl = build_workload("Camel", "tiny")
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
        core.run(_MEASURE)
        stats = core.stats
        return Work(units=stats.instructions, sim_cycles=stats.cycles,
                    instructions=stats.instructions)

    return rep


def _cache_setup():
    accesses = 8_000
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


def _tlb_setup():
    translations = 8_000
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


def _dram_setup():
    accesses = 12_000
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


def _assemble_setup():
    repeats = 16
    source = _assembler_source()

    def rep() -> Work:
        assembled = 0
        for _ in range(repeats):
            assembled += len(assembler.assemble(source, name="bench"))
        return Work(units=assembled)

    return rep


# Sorted by name, the order runs and tables use.
BENCHMARKS = (
    Benchmark("core.inorder.step", "instructions",
              "in-order core stepping (Camel, tiny scale)", _core_setup),
    Benchmark("core.ooo.step", "instructions",
              "out-of-order core stepping (Camel, tiny scale)",
              partial(_core_setup, ooo=True)),
    Benchmark("isa.assemble", "instructions",
              "text assembler over a 130-line synthetic kernel",
              _assemble_setup),
    Benchmark("mem.cache.access", "accesses",
              "L1/L2/MSHR demand loads over a mixed sequential/strided "
              "address stream", _cache_setup),
    Benchmark("mem.dram.schedule", "accesses",
              "DRAM busy-interval scheduling under heavy bandwidth "
              "contention", _dram_setup),
    Benchmark("mem.tlb.translate", "translations",
              "D-TLB/S-TLB lookups with page-table walks through the "
              "DRAM model", _tlb_setup),
    Benchmark("svr.prm.rounds", "instructions",
              "in-order core + SVR16 unit: PRM rounds, SVI issue, "
              "taint/stride training (Camel)",
              partial(_core_setup, svr_length=16)),
)


def select_benchmarks(patterns: tuple[str, ...] = ()) -> list[Benchmark]:
    """Benchmarks whose name matches any fnmatch *pattern* (all if none)."""
    if not patterns:
        return list(BENCHMARKS)
    chosen = [b for b in BENCHMARKS
              if any(fnmatch.fnmatch(b.name, p) for p in patterns)]
    if not chosen:
        raise ValueError(
            f"no benchmark matches {patterns!r}; known: "
            f"{', '.join(b.name for b in BENCHMARKS)}")
    return chosen

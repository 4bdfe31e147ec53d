"""Static taint analysis — the chain a perfect SVR unit would vectorize.

The dynamic :class:`~repro.svr.taint_tracker.TaintTracker` marks registers
holding values derived from a striding load while in piggyback runahead
mode; every instruction reading a tainted register becomes a dependent SVI
(paper Fig 8).  This module computes the *static* over-approximation of
that chain: seed the taint at a load's destination, propagate it through
register def-use edges to a fixpoint, and never untaint.  Because the
dynamic tracker only ever adds chain members whose sources were tainted by
exactly such def-use paths, the dynamic chain observed in any run is a
subset of the static chain computed here — which is what
``tests/test_static_vs_dynamic.py`` asserts kernel by kernel.

Per striding seed the analysis also reports the paper's two sizing
quantities: the expected SVI chain length per loop iteration (how many
dependent instructions fall inside the seed's loop) and the SRF pressure
(how many distinct architectural registers the chain maps into the
speculative register file, seed included).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.analysis.induction import LoadClass, LoadInfo, StrideAnalysis


@dataclass(frozen=True)
class StaticChain:
    """The statically computed dependent chain of one seed load."""

    seed_pc: int
    loop_header: int | None
    chain_pcs: frozenset[int]       # dependent instructions (seed excluded)
    tainted_regs: frozenset[int]
    loop_chain_pcs: frozenset[int]  # chain restricted to the seed's loop
    dependent_loads: tuple[int, ...]
    srf_regs: frozenset[int]        # registers needing SRF entries

    @property
    def chain_length(self) -> int:
        """Expected dependent SVIs per iteration (in-loop chain size)."""
        return len(self.loop_chain_pcs)

    @property
    def srf_pressure(self) -> int:
        return len(self.srf_regs)

    def to_dict(self) -> dict:
        return {
            "seed_pc": self.seed_pc,
            "loop_header": self.loop_header,
            "chain_pcs": sorted(self.chain_pcs),
            "tainted_regs": sorted(self.tainted_regs),
            "chain_length": self.chain_length,
            "dependent_loads": list(self.dependent_loads),
            "srf_pressure": self.srf_pressure,
        }


def taint_chain(cfg: CFG, seed_pc: int) -> StaticChain:
    """Propagate taint from the load at *seed_pc* to a fixpoint.

    Propagation is flow-insensitive over the whole program (runahead rounds
    follow the real instruction stream wherever it goes until termination),
    so the result is a safe superset of any dynamic chain.
    """
    program = cfg.program
    seed = program[seed_pc]
    if not seed.is_load or seed.rd is None:
        raise ValueError(f"seed pc {seed_pc} is not a load")
    loop = cfg.innermost_loop(seed_pc)
    reachable_pcs = [pc for start in cfg.rpo
                     for pc in cfg.blocks[start].pcs]
    tainted: set[int] = {seed.rd}
    chain: set[int] = set()
    changed = True
    while changed:
        changed = False
        for pc in reachable_pcs:
            if pc == seed_pc:
                continue
            inst = program[pc]
            if not any(r in tainted for r in inst.regs_read() if r != 0):
                continue
            if pc not in chain:
                chain.add(pc)
                changed = True
            for rd in inst.regs_written():
                if rd != 0 and rd not in tainted:
                    tainted.add(rd)
                    changed = True
    loop_pcs = (frozenset(cfg.loop_pcs(loop)) if loop is not None
                else frozenset())
    loop_chain = frozenset(chain) & loop_pcs
    dependent_loads = tuple(sorted(
        pc for pc in chain if program[pc].is_load))
    srf_regs = {seed.rd}
    for pc in loop_chain if loop is not None else chain:
        inst = program[pc]
        if inst.is_store or inst.is_branch:
            continue
        srf_regs.update(r for r in inst.regs_written() if r != 0)
    return StaticChain(
        seed_pc=seed_pc,
        loop_header=loop.header if loop is not None else None,
        chain_pcs=frozenset(chain),
        tainted_regs=frozenset(tainted),
        loop_chain_pcs=loop_chain,
        dependent_loads=dependent_loads,
        srf_regs=frozenset(srf_regs),
    )


def chains_for_program(cfg: CFG,
                       loads: list[LoadInfo] | None = None,
                       ) -> list[StaticChain]:
    """One :class:`StaticChain` per statically striding load."""
    if loads is None:
        loads = StrideAnalysis(cfg).loads()
    return [taint_chain(cfg, info.pc) for info in loads
            if info.load_class is LoadClass.STRIDING]

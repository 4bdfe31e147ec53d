"""Static stride analysis (the static half of SVR).

Each load is classified by reading its address expression in the one
address lattice, :class:`~repro.analysis.memdep.AddrExpr` of
:mod:`repro.analysis.memdep` (which also finds each loop's basic induction
variables).  The result mirrors what the dynamic stride detector discovers
at runtime (Fig 6 of the paper):

* address affine in an induction variable  →  :attr:`LoadClass.STRIDING`
  with a known byte stride per iteration;
* address fed by another in-loop load's result  →
  :attr:`LoadClass.INDIRECT` (the loads SVR's taint chain vectorizes);
* address that does not change across iterations  →
  :attr:`LoadClass.INVARIANT`;
* anything else (hashed/masked indices, multi-IV sums, values that
  differ by path)  →  :attr:`LoadClass.IRREGULAR`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.analysis.memdep import MemDepAnalysis


class LoadClass(enum.Enum):
    """Address behaviour of one static load across iterations of its loop."""

    STRIDING = "striding"        # affine in a loop induction variable
    INDIRECT = "indirect"        # address depends on another load's result
    INVARIANT = "invariant"      # address is loop-invariant
    IRREGULAR = "irregular"      # address varies but fits no affine form
    NONLOOP = "nonloop"          # the load is not inside any natural loop


@dataclass(frozen=True)
class LoadInfo:
    """Static classification of one load instruction."""

    pc: int
    load_class: LoadClass
    loop_header: int | None = None      # innermost loop's header block
    stride: int | None = None           # bytes/iteration for STRIDING
    iv_reg: int | None = None           # driving IV for STRIDING
    depends_on: tuple[int, ...] = ()    # feeding load pcs for INDIRECT

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "class": self.load_class.value,
            "loop_header": self.loop_header,
            "stride": self.stride,
            "iv_reg": self.iv_reg,
            "depends_on": list(self.depends_on),
        }


class StrideAnalysis:
    """Per-load address classification, read off memdep's lattice."""

    def __init__(self, cfg: CFG, memdep: MemDepAnalysis | None = None) -> None:
        self.cfg = cfg
        self.program = cfg.program
        self.memdep = memdep or MemDepAnalysis(cfg)

    def classify_load(self, pc: int) -> LoadInfo:
        """Classify the load at *pc* against its innermost natural loop."""
        if not self.program[pc].is_load:
            raise ValueError(f"pc {pc} is not a load")
        loop = self.cfg.innermost_loop(pc)
        if loop is None:
            return LoadInfo(pc, LoadClass.NONLOOP)
        access = self.memdep.access_of(pc, loop)
        expr = access.expr
        if access.stride:
            return LoadInfo(pc, LoadClass.STRIDING, loop.header,
                            stride=access.stride, iv_reg=expr.iv)
        if expr.loads:
            return LoadInfo(pc, LoadClass.INDIRECT, loop.header,
                            depends_on=tuple(sorted(expr.loads)))
        if expr.kind in ("invariant", "affine"):    # affine at stride 0
            return LoadInfo(pc, LoadClass.INVARIANT, loop.header)
        return LoadInfo(pc, LoadClass.IRREGULAR, loop.header)

    def loads(self) -> list[LoadInfo]:
        """Classify every (reachable) load in the program, in pc order."""
        infos = []
        for start in self.cfg.rpo:
            for pc in self.cfg.blocks[start].pcs:
                if self.program[pc].is_load:
                    infos.append(self.classify_load(pc))
        return sorted(infos, key=lambda info: info.pc)

"""Induction-variable and static stride analysis (the static half of SVR).

For every natural loop the analysis finds the *basic induction variables*
(registers updated by exactly one loop-carried ``addi r, r, c``), then
symbolically evaluates each load's address register over the loop's def-use
chains.  The result mirrors what the dynamic stride detector discovers at
runtime (Fig 6 of the paper):

* address affine in an induction variable  →  :attr:`LoadClass.STRIDING`
  with a known byte stride per iteration;
* address derived from another load's result  →  :attr:`LoadClass.INDIRECT`
  (the loads SVR's taint chain vectorizes);
* address with no in-loop definition  →  :attr:`LoadClass.INVARIANT`;
* anything else (hashed/masked indices, multi-IV sums)  →
  :attr:`LoadClass.IRREGULAR`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG, Loop
from repro.analysis.dataflow import ReachingDefinitions
from repro.isa.instructions import Opcode
from repro.svr.chain import LoadClass

# -- symbolic address expressions ------------------------------------------


@dataclass(frozen=True)
class _Expr:
    """Base class for the tiny address-expression lattice."""


@dataclass(frozen=True)
class Invariant(_Expr):
    """Loop-invariant value (constant within one loop instance)."""


@dataclass(frozen=True)
class Affine(_Expr):
    """``iv * scale + invariant`` for a basic induction variable ``iv``."""

    iv: int          # register index of the basic IV
    scale: int       # multiplier applied to the IV (bytes per index unit)


@dataclass(frozen=True)
class LoadDep(_Expr):
    """Value derived from the result of one or more in-loop loads."""

    loads: frozenset[int]      # pcs of the feeding loads


@dataclass(frozen=True)
class Unknown(_Expr):
    """Loop-variant but not affine and not load-derived."""


_INVARIANT = Invariant()
_UNKNOWN = Unknown()

# Opcodes whose result class simply follows their operands' classes with no
# affine structure preserved (hashing, masking, comparing ...).
_OPAQUE_OPS = frozenset({
    Opcode.AND, Opcode.ANDI, Opcode.OR, Opcode.ORI, Opcode.XOR, Opcode.XORI,
    Opcode.SRL, Opcode.SRLI, Opcode.MIN, Opcode.MAX, Opcode.FMUL,
    Opcode.CMP_LT, Opcode.CMP_LTU, Opcode.CMP_EQ, Opcode.CMP_NE,
    Opcode.CMP_GE, Opcode.SLL, Opcode.MUL,
})


@dataclass(frozen=True)
class InductionVariable:
    """A basic IV: single in-loop update ``addi reg, reg, step``."""

    reg: int
    step: int
    update_pc: int


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
    """Per-loop IV discovery and per-load address classification."""

    def __init__(self, cfg: CFG,
                 reaching: ReachingDefinitions | None = None) -> None:
        self.cfg = cfg
        self.program = cfg.program
        self.reaching = reaching or ReachingDefinitions(cfg)
        self._ivs: dict[int, dict[int, InductionVariable]] = {}
        self._loop_pcs: dict[int, frozenset[int]] = {}

    # -- induction variables ------------------------------------------------

    def induction_variables(self, loop: Loop) -> dict[int, InductionVariable]:
        """Basic IVs of *loop*, keyed by register index."""
        cached = self._ivs.get(loop.header)
        if cached is not None:
            return cached
        pcs = self._pcs_of(loop)
        defs_by_reg: dict[int, list[int]] = {}
        for pc in pcs:
            inst = self.program[pc]
            for reg in inst.regs_written():
                if reg != 0:
                    defs_by_reg.setdefault(reg, []).append(pc)
        ivs: dict[int, InductionVariable] = {}
        for reg, def_pcs in defs_by_reg.items():
            if len(def_pcs) != 1:
                continue
            inst = self.program[def_pcs[0]]
            if (inst.op is Opcode.ADDI and inst.rs1 == reg
                    and inst.imm != 0):
                ivs[reg] = InductionVariable(reg, inst.imm, def_pcs[0])
        self._ivs[loop.header] = ivs
        return ivs

    def _pcs_of(self, loop: Loop) -> frozenset[int]:
        cached = self._loop_pcs.get(loop.header)
        if cached is None:
            cached = frozenset(self.cfg.loop_pcs(loop))
            self._loop_pcs[loop.header] = cached
        return cached

    # -- symbolic evaluation ------------------------------------------------

    def address_expr(self, reg: int, use_pc: int, loop: Loop) -> _Expr:
        """Symbolic value of *reg* as read at *use_pc* within *loop*."""
        return self._eval_reg(reg, use_pc, loop, frozenset())

    def _eval_reg(self, reg: int, use_pc: int, loop: Loop,
                  visiting: frozenset[int]) -> _Expr:
        if reg == 0:
            return _INVARIANT
        if reg in self.induction_variables(loop):
            return Affine(reg, 1)
        pcs = self._pcs_of(loop)
        reaching = self.reaching.reaching(use_pc, reg)
        in_loop = [d for d in reaching if d in pcs]
        if not in_loop:
            return _INVARIANT
        exprs = [self._eval_def(d, loop, visiting) for d in in_loop]
        if len(in_loop) < len(reaching):
            # Some paths carry a pre-loop value: meet with invariant.
            exprs.append(_INVARIANT)
        result = exprs[0]
        for expr in exprs[1:]:
            result = _meet(result, expr)
        return result

    def _eval_def(self, def_pc: int, loop: Loop,
                  visiting: frozenset[int]) -> _Expr:
        if def_pc in visiting:
            return _UNKNOWN       # loop-carried cycle that is not a basic IV
        visiting = visiting | {def_pc}
        inst = self.program[def_pc]
        if inst.is_load:
            return LoadDep(frozenset({def_pc}))
        op = inst.op
        if op is Opcode.LI:
            return _INVARIANT
        if op in (Opcode.MV, Opcode.ADDI):
            return self._eval_reg(inst.rs1, def_pc, loop, visiting)
        if op is Opcode.SLLI:
            return _rescale(self._eval_reg(inst.rs1, def_pc, loop, visiting),
                            1 << (inst.imm & 63))
        if op is Opcode.MULI:
            return _rescale(self._eval_reg(inst.rs1, def_pc, loop, visiting),
                            inst.imm)
        if op in (Opcode.ADD, Opcode.FADD, Opcode.SUB):
            a = self._eval_reg(inst.rs1, def_pc, loop, visiting)
            b = self._eval_reg(inst.rs2, def_pc, loop, visiting)
            return _combine(a, b, negate_b=op is Opcode.SUB)
        if op in _OPAQUE_OPS:
            exprs = [self._eval_reg(r, def_pc, loop, visiting)
                     for r in inst.regs_read()]
            loads = frozenset().union(
                *(e.loads for e in exprs if isinstance(e, LoadDep)))
            if loads:
                return LoadDep(loads)
            if all(isinstance(e, Invariant) for e in exprs):
                return _INVARIANT
            return _UNKNOWN
        return _UNKNOWN

    # -- load classification ------------------------------------------------

    def classify_load(self, pc: int) -> LoadInfo:
        """Classify the load at *pc* against its innermost natural loop."""
        inst = self.program[pc]
        if not inst.is_load:
            raise ValueError(f"pc {pc} is not a load")
        loop = self.cfg.innermost_loop(pc)
        if loop is None:
            return LoadInfo(pc, LoadClass.NONLOOP)
        expr = self.address_expr(inst.rs1, pc, loop)
        if isinstance(expr, Affine):
            step = self.induction_variables(loop)[expr.iv].step
            stride = expr.scale * step
            if stride == 0:
                return LoadInfo(pc, LoadClass.INVARIANT, loop.header)
            return LoadInfo(pc, LoadClass.STRIDING, loop.header,
                            stride=stride, iv_reg=expr.iv)
        if isinstance(expr, LoadDep):
            return LoadInfo(pc, LoadClass.INDIRECT, loop.header,
                            depends_on=tuple(sorted(expr.loads)))
        if isinstance(expr, Invariant):
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


def _rescale(expr: _Expr, factor: int) -> _Expr:
    if isinstance(expr, Affine):
        return Affine(expr.iv, expr.scale * factor)
    if isinstance(expr, (Invariant, LoadDep)):
        return expr
    return _UNKNOWN


def _combine(a: _Expr, b: _Expr, *, negate_b: bool) -> _Expr:
    loads = frozenset()
    for e in (a, b):
        if isinstance(e, LoadDep):
            loads = loads | e.loads
    if loads:
        return LoadDep(loads)
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return _UNKNOWN
    if isinstance(a, Invariant) and isinstance(b, Invariant):
        return _INVARIANT
    if isinstance(a, Invariant):
        assert isinstance(b, Affine)
        return Affine(b.iv, -b.scale if negate_b else b.scale)
    if isinstance(b, Invariant):
        assert isinstance(a, Affine)
        return a
    assert isinstance(a, Affine) and isinstance(b, Affine)
    if a.iv != b.iv:
        return _UNKNOWN
    scale = a.scale + (-b.scale if negate_b else b.scale)
    return Affine(a.iv, scale) if scale else _INVARIANT


def _meet(a: _Expr, b: _Expr) -> _Expr:
    """Join values arriving over different paths."""
    if a == b:
        return a
    if isinstance(a, LoadDep) and isinstance(b, LoadDep):
        return LoadDep(a.loads | b.loads)
    # A load-derived value on one path dominates the classification: the
    # dynamic taint tracker would taint the register on that path.
    if isinstance(a, LoadDep):
        return a
    if isinstance(b, LoadDep):
        return b
    return _UNKNOWN

"""Loop-level memory-dependence analysis over the address lattice.

This module owns the analysis's one address lattice.  For every natural
loop it finds the *basic induction variables* (registers updated by
exactly one loop-carried ``addi r, r, c``) and evaluates every address
register symbolically over the loop's def-use chains into an
:class:`AddrExpr` of kind ``invariant`` | ``affine`` | ``loaddep`` |
``varying``.  Every value also keeps the set of in-loop loads that feed
it, whatever its kind; :class:`~repro.analysis.induction.StrideAnalysis`
classifies each load by reading its expression.  On top of the lattice
sit the two ingredients a vectorization-legality argument needs:

* **base regions** — the loop-invariant component of every address is
  resolved through out-of-loop def chains down to its *root definitions*
  (``li`` constants, or opaque out-of-loop defs kept as symbolic roots).
  Roots behave like allocation sites: accesses whose invariant bases come
  from different roots are *assumed* to touch disjoint arrays.  That
  assumption is exactly what the dynamic oracle
  (:mod:`repro.analysis.oracle`) validates against observed address ranges;

* **dependence distances** — two affine accesses driven by the same
  induction variable at the same scale have a computable iteration
  distance ``(disp_b - disp_a) / stride``; non-divisible displacements are
  *provably* independent (the streams interleave but never collide).

For every natural loop :func:`MemDepAnalysis.loop_dependences` classifies
each load/store address, tests every store-involving pair, and classifies
each branch as ``uniform`` (loop-invariant condition), ``trip``
(loop-variant but not load-derived — the loop-bound unit's territory) or
``divergent`` (condition derived from an in-loop load — SVR's lane-mask
territory).  Independence verdicts carry a ``basis`` of ``proved`` or
``assumed`` so downstream consumers know which claims need the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.cfg import CFG, Loop
from repro.analysis.dataflow import ReachingDefinitions
from repro.isa.instructions import Opcode

MEMDEP_SCHEMA = 1

# Resolution depth cap for out-of-loop def chains (init preambles are short;
# the cap only guards against pathological hand-built programs).
_MAX_DEPTH = 32

# Opcodes whose result keeps no affine structure of its operands (hashing,
# masking, comparing ...).
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
class InvPart:
    """The loop-invariant additive component of an address expression.

    ``absolute`` means ``disp`` alone is the runtime value (an ``li``
    chain).  Otherwise ``roots`` identifies the symbolic base (out-of-loop
    def pcs) and ``disp``, when known, is the constant offset applied on
    top of it — so two parts with equal roots and known disps still have a
    provable difference.
    """

    roots: frozenset[int] = frozenset()
    disp: int | None = 0
    absolute: bool = True

    def add(self, other: "InvPart") -> "InvPart":
        disp = (self.disp + other.disp
                if self.disp is not None and other.disp is not None else None)
        return InvPart(self.roots | other.roots, disp,
                       self.absolute and other.absolute)

    def negate(self) -> "InvPart":
        if self.absolute:
            return InvPart(self.roots,
                           None if self.disp is None else -self.disp, True)
        # Negating a symbolic base breaks the offset identity; keep the
        # roots for region purposes only.
        return InvPart(self.roots, None, False)

    def rescale(self, factor: int) -> "InvPart":
        if self.absolute:
            return InvPart(self.roots,
                           None if self.disp is None else self.disp * factor,
                           True)
        return InvPart(self.roots, None, False)

    def region_key(self) -> tuple[Any, ...] | None:
        """Identity of the base region, or ``None`` when unknown."""
        if self.absolute and self.disp is not None:
            return ("abs", self.disp)
        if self.roots:
            return ("roots", tuple(sorted(self.roots)))
        return None

    def delta(self, other: "InvPart") -> int | None:
        """``other - self`` in bytes, when provable."""
        if self.disp is None or other.disp is None:
            return None
        if self.absolute and other.absolute:
            return other.disp - self.disp
        if self.roots == other.roots and self.absolute == other.absolute:
            return other.disp - self.disp
        return None


_UNKNOWN_INV = InvPart(frozenset(), None, False)


@dataclass(frozen=True)
class AddrExpr:
    """Symbolic address value: one of the lattice kinds plus its base.

    ``kind`` is ``invariant`` | ``affine`` | ``loaddep`` | ``varying``.
    ``affine`` means ``iv * scale + inv``; ``loaddep`` keeps the invariant
    component that was added to the load-derived value (the array base of
    a gather/scatter); ``varying`` is loop-variant with no usable form.
    ``loads`` is the set of in-loop loads feeding the value, of any kind:
    a load's result plus a loop-carried hash is ``varying``, yet fed by
    that load.
    """

    kind: str
    inv: InvPart = _UNKNOWN_INV
    iv: int | None = None
    scale: int = 0
    loads: frozenset[int] = frozenset()

    def region_key(self) -> tuple[Any, ...] | None:
        if self.kind == "varying":
            return None
        return self.inv.region_key()


_VARYING = AddrExpr("varying")


def _invariant(inv: InvPart) -> AddrExpr:
    return AddrExpr("invariant", inv)


def _add(a: AddrExpr, b: AddrExpr, *, negate_b: bool = False) -> AddrExpr:
    loads = a.loads | b.loads
    if a.kind == "varying" or b.kind == "varying":
        return AddrExpr("varying", loads=loads)
    inv_b = b.inv.negate() if negate_b else b.inv
    inv = a.inv.add(inv_b)
    if loads:
        return AddrExpr("loaddep", inv, loads=loads)
    if a.kind == "affine" and b.kind == "affine":
        if a.iv != b.iv:
            return _VARYING
        scale = a.scale + (-b.scale if negate_b else b.scale)
        if scale == 0:
            return _invariant(inv)
        return AddrExpr("affine", inv, iv=a.iv, scale=scale)
    if a.kind == "affine":
        return AddrExpr("affine", inv, iv=a.iv, scale=a.scale)
    if b.kind == "affine":
        scale = -b.scale if negate_b else b.scale
        return AddrExpr("affine", inv, iv=b.iv, scale=scale)
    return _invariant(inv)


def _rescale(expr: AddrExpr, factor: int) -> AddrExpr:
    if expr.kind == "varying":
        return expr
    inv = expr.inv.rescale(factor)
    if expr.kind == "affine":
        return AddrExpr("affine", inv, iv=expr.iv, scale=expr.scale * factor)
    if expr.kind == "loaddep":
        return AddrExpr("loaddep", inv, loads=expr.loads)
    return _invariant(inv)


def _meet(a: AddrExpr, b: AddrExpr) -> AddrExpr:
    """Join values arriving over different paths (LoadDep dominates)."""
    if a == b:
        return a
    loads = a.loads | b.loads
    if "loaddep" in (a.kind, b.kind):
        inv = (a.inv if a.inv == b.inv else _UNKNOWN_INV)
        return AddrExpr("loaddep", inv, loads=loads)
    return AddrExpr("varying", loads=loads)


@dataclass(frozen=True)
class MemAccess:
    """One classified load or store inside a loop."""

    pc: int
    is_store: bool
    expr: AddrExpr
    stride: int | None       # bytes per iteration when affine

    def to_dict(self) -> dict:
        expr = self.expr
        return {
            "pc": self.pc,
            "access": "store" if self.is_store else "load",
            "kind": expr.kind,
            "iv_reg": expr.iv,
            "stride": self.stride,
            "disp": expr.inv.disp,
            "roots": sorted(expr.inv.roots),
            "absolute": expr.inv.absolute,
            "loads": sorted(expr.loads),
        }


@dataclass(frozen=True)
class DepEdge:
    """Dependence verdict for one store-involving access pair.

    ``verdict`` is ``independent`` | ``distance`` | ``may-alias``;
    ``basis`` records whether an independence claim is ``proved`` (address
    arithmetic) or ``assumed`` (distinct base regions — the claim the
    dynamic oracle checks).  ``distance`` is in loop iterations: the two
    accesses touch the same address ``distance`` iterations apart.
    """

    src_pc: int
    dst_pc: int
    kind: str                # "store-load" | "store-store"
    verdict: str
    basis: str
    reason: str
    distance: int | None = None

    def to_dict(self) -> dict:
        return {
            "src_pc": self.src_pc,
            "dst_pc": self.dst_pc,
            "kind": self.kind,
            "verdict": self.verdict,
            "basis": self.basis,
            "reason": self.reason,
            "distance": self.distance,
        }


@dataclass(frozen=True)
class BranchInfo:
    """Lane-divergence class of one in-loop branch.

    ``uniform`` — loop-invariant condition, identical across lanes;
    ``trip``    — loop-variant but not ``loaddep`` (trip-count shaped;
                  the loop-bound unit throttles N', no lane masking occurs);
    ``divergent`` — condition derived from an in-loop load: per-lane
                  outcomes can differ, SVR masks diverging lanes.
    """

    pc: int
    cls: str

    def to_dict(self) -> dict:
        return {"pc": self.pc, "class": self.cls}


@dataclass(frozen=True)
class LoopDependences:
    """Everything memdep learned about one natural loop."""

    header: int
    accesses: tuple[MemAccess, ...]
    edges: tuple[DepEdge, ...]
    branches: tuple[BranchInfo, ...]

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "accesses": [a.to_dict() for a in self.accesses],
            "edges": [e.to_dict() for e in self.edges],
            "branches": [b.to_dict() for b in self.branches],
        }


class MemDepAnalysis:
    """Address classification and dependence testing, loop by loop."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.program = cfg.program
        self.reaching = ReachingDefinitions(cfg)
        self._loop_pcs: dict[int, frozenset[int]] = {}
        self._ivs: dict[int, dict[int, InductionVariable]] = {}
        self._inv_cache: dict[int, InvPart] = {}

    def _pcs_of(self, loop: Loop) -> frozenset[int]:
        cached = self._loop_pcs.get(loop.header)
        if cached is None:
            cached = frozenset(self.cfg.loop_pcs(loop))
            self._loop_pcs[loop.header] = cached
        return cached

    # -- induction variables ------------------------------------------------

    def induction_variables(self, loop: Loop) -> dict[int, InductionVariable]:
        """Basic IVs of *loop*, keyed by register index."""
        cached = self._ivs.get(loop.header)
        if cached is not None:
            return cached
        defs_by_reg: dict[int, list[int]] = {}
        for pc in self._pcs_of(loop):
            for reg in self.program[pc].regs_written():
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

    # -- symbolic evaluation ------------------------------------------------

    def expr_of(self, reg: int | None, use_pc: int, loop: Loop) -> AddrExpr:
        """Symbolic value of *reg* as read at *use_pc* within *loop*."""
        if reg is None:
            return _invariant(InvPart(frozenset(), 0, True))
        return self._eval_reg(reg, use_pc, loop, frozenset())

    def _eval_reg(self, reg: int, use_pc: int, loop: Loop,
                  visiting: frozenset[int]) -> AddrExpr:
        if reg == 0:
            return _invariant(InvPart(frozenset(), 0, True))
        if reg in self.induction_variables(loop):
            return AddrExpr("affine", InvPart(frozenset(), 0, True),
                            iv=reg, scale=1)
        pcs = self._pcs_of(loop)
        reaching = self.reaching.reaching(use_pc, reg)
        in_loop = [d for d in reaching if d in pcs]
        out_loop = sorted(d for d in reaching if d not in pcs)
        if not in_loop:
            return _invariant(self._resolve_out(out_loop, 0))
        exprs = [self._eval_def(d, loop, visiting) for d in in_loop]
        if out_loop:
            exprs.append(_invariant(self._resolve_out(out_loop, 0)))
        result = exprs[0]
        for expr in exprs[1:]:
            result = _meet(result, expr)
        return result

    def _eval_def(self, def_pc: int, loop: Loop,
                  visiting: frozenset[int]) -> AddrExpr:
        if def_pc in visiting:
            return _VARYING        # loop-carried cycle that is not a basic IV
        visiting = visiting | {def_pc}
        inst = self.program[def_pc]
        if inst.is_load:
            return AddrExpr("loaddep", InvPart(frozenset(), 0, True),
                            loads=frozenset({def_pc}))
        op = inst.op
        if op is Opcode.LI:
            return _invariant(InvPart(frozenset(), inst.imm, True))
        if op is Opcode.MV:
            assert inst.rs1 is not None
            return self._eval_reg(inst.rs1, def_pc, loop, visiting)
        if op is Opcode.ADDI:
            assert inst.rs1 is not None
            base = self._eval_reg(inst.rs1, def_pc, loop, visiting)
            return _add(base, _invariant(InvPart(frozenset(), inst.imm, True)))
        if op is Opcode.SLLI:
            assert inst.rs1 is not None
            return _rescale(
                self._eval_reg(inst.rs1, def_pc, loop, visiting),
                1 << (inst.imm & 63))
        if op is Opcode.MULI:
            assert inst.rs1 is not None
            return _rescale(
                self._eval_reg(inst.rs1, def_pc, loop, visiting), inst.imm)
        if op in (Opcode.ADD, Opcode.FADD, Opcode.SUB):
            assert inst.rs1 is not None and inst.rs2 is not None
            a = self._eval_reg(inst.rs1, def_pc, loop, visiting)
            b = self._eval_reg(inst.rs2, def_pc, loop, visiting)
            return _add(a, b, negate_b=op is Opcode.SUB)
        if op in _OPAQUE_OPS:
            exprs = [self._eval_reg(r, def_pc, loop, visiting)
                     for r in inst.regs_read()]
            loads = frozenset().union(*(e.loads for e in exprs))
            if any(e.kind == "loaddep" for e in exprs):
                return AddrExpr("loaddep", _UNKNOWN_INV, loads=loads)
            if all(e.kind == "invariant" for e in exprs):
                # Opaque combination of invariants is invariant, but the
                # value (and hence region) is no longer tracked.
                return _invariant(InvPart(frozenset({def_pc}), None, False))
            return AddrExpr("varying", loads=loads)
        return _VARYING

    # -- out-of-loop base resolution ----------------------------------------

    def _resolve_out(self, def_pcs: list[int], depth: int) -> InvPart:
        """Resolve a loop-invariant value down to its root definitions."""
        if not def_pcs:
            # No reaching definition at all: the architectural zero.
            return InvPart(frozenset(), 0, True)
        if len(def_pcs) > 1 or depth > _MAX_DEPTH:
            return InvPart(frozenset(def_pcs), None, False)
        return self._resolve_def(def_pcs[0], depth)

    def _resolve_def(self, def_pc: int, depth: int) -> InvPart:
        cached = self._inv_cache.get(def_pc)
        if cached is not None:
            return cached
        result = self._resolve_def_uncached(def_pc, depth)
        self._inv_cache[def_pc] = result
        return result

    def _resolve_def_uncached(self, def_pc: int, depth: int) -> InvPart:
        inst = self.program[def_pc]
        op = inst.op
        if op is Opcode.LI:
            return InvPart(frozenset({def_pc}), inst.imm, True)
        if depth > _MAX_DEPTH:
            return InvPart(frozenset({def_pc}), None, False)
        if op in (Opcode.MV, Opcode.ADDI):
            assert inst.rs1 is not None
            base = self._resolve_reg_out(inst.rs1, def_pc, depth + 1)
            if op is Opcode.MV:
                return base
            return base.add(InvPart(frozenset(), inst.imm, True))
        if op is Opcode.SLLI:
            assert inst.rs1 is not None
            return self._resolve_reg_out(
                inst.rs1, def_pc, depth + 1).rescale(1 << (inst.imm & 63))
        if op is Opcode.MULI:
            assert inst.rs1 is not None
            return self._resolve_reg_out(
                inst.rs1, def_pc, depth + 1).rescale(inst.imm)
        if op in (Opcode.ADD, Opcode.FADD, Opcode.SUB):
            assert inst.rs1 is not None and inst.rs2 is not None
            a = self._resolve_reg_out(inst.rs1, def_pc, depth + 1)
            b = self._resolve_reg_out(inst.rs2, def_pc, depth + 1)
            return a.add(b.negate() if op is Opcode.SUB else b)
        # Loads and opaque ops become symbolic roots of their own.
        return InvPart(frozenset({def_pc}), None, False)

    def _resolve_reg_out(self, reg: int, use_pc: int, depth: int) -> InvPart:
        if reg == 0:
            return InvPart(frozenset(), 0, True)
        defs = sorted(self.reaching.reaching(use_pc, reg))
        if use_pc in defs:
            # Self-referential def (a non-IV cycle): keep it symbolic.
            return InvPart(frozenset({use_pc}), None, False)
        return self._resolve_out(defs, depth)

    # -- per-loop classification --------------------------------------------

    def access_of(self, pc: int, loop: Loop) -> MemAccess:
        """Classify the address of the load or store at *pc* in *loop*."""
        inst = self.program[pc]
        base = self.expr_of(inst.rs1, pc, loop)
        expr = _add(base, _invariant(InvPart(frozenset(), inst.imm, True)))
        stride = None
        if expr.kind == "affine":
            assert expr.iv is not None
            stride = expr.scale * self.induction_variables(loop)[expr.iv].step
        return MemAccess(pc, inst.is_store, expr, stride)

    def accesses_of(self, loop: Loop) -> tuple[MemAccess, ...]:
        """Classify every load and store inside *loop*, in pc order."""
        return tuple(self.access_of(pc, loop)
                     for pc in sorted(self._pcs_of(loop))
                     if self.program[pc].is_mem)

    def branches_of(self, loop: Loop) -> tuple[BranchInfo, ...]:
        """Lane-divergence class of every branch inside *loop*."""
        out = []
        for pc in sorted(self._pcs_of(loop)):
            inst = self.program[pc]
            if not inst.is_branch:
                continue
            expr = self.expr_of(inst.rs1, pc, loop)
            if expr.kind == "loaddep":
                cls = "divergent"
            elif expr.kind == "invariant":
                cls = "uniform"
            else:
                cls = "trip"
            out.append(BranchInfo(pc, cls))
        return tuple(out)

    def _dep_edge(self, a: MemAccess, b: MemAccess, loop: Loop) -> DepEdge:
        kind = ("store-store" if a.is_store and b.is_store else "store-load")
        ea, eb = a.expr, b.expr
        if ea.kind == "varying" or eb.kind == "varying":
            return DepEdge(a.pc, b.pc, kind, "may-alias", "proved",
                           "unknown-address")
        # Provable tier: same IV and scale (including scale 0, i.e. two
        # loop-invariant addresses) with a known byte displacement.
        if (ea.kind == eb.kind and ea.kind in ("affine", "invariant")
                and ea.iv == eb.iv and ea.scale == eb.scale):
            delta = ea.inv.delta(eb.inv)
            if delta is not None:
                if ea.kind == "invariant":
                    if delta == 0:
                        return DepEdge(a.pc, b.pc, kind, "may-alias",
                                       "proved", "invariant-address")
                    return DepEdge(a.pc, b.pc, kind, "independent", "proved",
                                   "distinct-constants")
                assert ea.iv is not None
                stride = ea.scale * self.induction_variables(loop)[ea.iv].step
                if stride != 0:
                    if delta % stride:
                        return DepEdge(a.pc, b.pc, kind, "independent",
                                       "proved", "non-divisible")
                    return DepEdge(a.pc, b.pc, kind, "distance", "proved",
                                   "exact-distance",
                                   distance=delta // stride)
        # Assumed tier: distinct base regions are disjoint arrays.
        ka, kb = ea.region_key(), eb.region_key()
        if ka is None or kb is None:
            return DepEdge(a.pc, b.pc, kind, "may-alias", "proved",
                           "unknown-region")
        if ka != kb:
            return DepEdge(a.pc, b.pc, kind, "independent", "assumed",
                           "distinct-regions")
        return DepEdge(a.pc, b.pc, kind, "may-alias", "proved",
                       "same-region")

    def loop_dependences(self, loop: Loop) -> LoopDependences:
        """Accesses, dependence edges and branch classes for *loop*."""
        accesses = self.accesses_of(loop)
        edges = []
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if not (a.is_store or b.is_store):
                    continue
                edges.append(self._dep_edge(a, b, loop))
        return LoopDependences(loop.header, accesses, tuple(edges),
                               self.branches_of(loop))

    def analyze(self) -> list[LoopDependences]:
        """One :class:`LoopDependences` per natural loop, header order."""
        return [self.loop_dependences(loop)
                for loop in sorted(self.cfg.loops, key=lambda lp: lp.header)]

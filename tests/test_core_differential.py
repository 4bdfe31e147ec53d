"""Differential test: every timing core against the reference semantics.

:func:`repro.isa.executor.execute` is the one reference for what an
instruction does, and :class:`FunctionalCore` runs it and nothing else.
The timing cores inline those semantics into their step, so random valid
programs must end with the same pc, registers and memory image on the
functional core and on every timing-core configuration: the in-order core
alone and with an SVR unit, the out-of-order core alone and with Vector
Runahead.  SVR and VR execute transiently over the same state, so this
also checks that they leave no trace in it.  The same programs also
check the SVR unit's dynamic chains against the static taint analysis.

CI runs a deeper budget: ``pytest tests/test_core_differential.py
--hypothesis-profile=deep`` (the profile is registered in conftest.py).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    LoadClass,
    StrideAnalysis,
    build_cfg,
    build_plan,
    collect_trace,
    taint_chain,
    validate_plan,
)
from repro.cores.functional import FunctionalCore
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.isa.instructions import ALU_OPS, CMP_OPS, FP_OPS, Opcode
from repro.isa.program import ProgramBuilder
from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.svr.config import SVRConfig
from repro.svr.unit import ScalarVectorUnit
from repro.svr.vr import VectorRunaheadUnit

WORDS = 512          # data words masked accesses may touch
STRIDE = 64          # bytes the striding load advances per loop trip
BASE, COUNT, PTR, ADDR, STRIDED = 3, 4, 5, 6, 7    # reserved registers
DATA = list(range(10, 20))
DESTS = [0, STRIDED, *DATA]            # x0 writes must be discarded
SOURCES = [0, BASE, COUNT, PTR, ADDR, STRIDED, *DATA]
MAX_INSTRUCTIONS = 50_000

_MASK64 = (1 << 64) - 1
EXTREMES = [0, 1, 2, 63, 64, -1, 0xFFFF_FFFF, 1 << 32, (1 << 63) - 1,
            -(1 << 63), _MASK64]
REG_IMM = [Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
           Opcode.SRLI, Opcode.MULI]
REG_REG = sorted((ALU_OPS | FP_OPS | CMP_OPS)
                 - {*REG_IMM, Opcode.LI, Opcode.MV}, key=lambda op: op.value)
# One body item per opcode form, so every program uses every opcode (the
# final HALT is the one not drawn into the body).
FORMS = ([("rr", op) for op in REG_REG] + [("ri", op) for op in REG_IMM]
         + [("li", Opcode.LI), ("mv", Opcode.MV), ("ld", Opcode.LD),
            ("st", Opcode.ST), ("beqz", Opcode.BEQZ),
            ("bnez", Opcode.BNEZ), ("jmp", Opcode.JMP),
            ("nop", Opcode.NOP)])

values = st.one_of(st.sampled_from(EXTREMES),
                   st.integers(-(1 << 63), _MASK64))
dests = st.sampled_from(DESTS)
sources = st.sampled_from(SOURCES)
masks = st.sampled_from([7, 31, WORDS - 1])
displacements = st.sampled_from([-8, 0, 8])
skips = st.integers(1, 4)


@st.composite
def items(draw, form):
    """One body item of *form*: ``(kind, op, operands...)``."""
    kind, op = form
    if kind == "rr":
        return (kind, op, draw(dests), draw(sources), draw(sources))
    if kind == "ri":
        return (kind, op, draw(dests), draw(sources), draw(values))
    if kind == "li":
        return (kind, op, draw(dests), draw(values))
    if kind == "mv":
        return (kind, op, draw(dests), draw(sources))
    if kind == "ld":
        return (kind, op, draw(dests), draw(sources), draw(masks),
                draw(displacements))
    if kind == "st":
        return (kind, op, draw(sources), draw(sources), draw(masks),
                draw(displacements))
    if kind in ("beqz", "bnez"):
        return (kind, op, draw(sources), draw(skips))
    if kind == "jmp":
        return (kind, op, draw(skips))
    return (kind, op)


@st.composite
def programs(draw):
    """A countdown loop led by a striding load, over a shuffled body of
    every opcode form plus extra random items."""
    forms = draw(st.permutations(FORMS))
    forms += draw(st.lists(st.sampled_from(FORMS), max_size=8))
    return {
        "trips": draw(st.integers(6, 20)),
        "inits": [draw(values) for _ in DATA],
        "fill_seed": draw(st.integers(0, 2**32 - 1)),
        "body": [draw(items(form)) for form in forms],
    }


def build(spec):
    """A fresh (program, memory) pair for *spec*."""
    memory = MainMemory(capacity_bytes=1 << 20)
    rng = np.random.default_rng(spec["fill_seed"])
    # One guard word either side keeps every displaced access inside.
    guarded = rng.integers(-(1 << 63), (1 << 63) - 1, size=WORDS + 2,
                           dtype=np.int64, endpoint=True)
    base = memory.alloc_array(guarded, name="data") + 8

    b = ProgramBuilder("differential")
    b.li(BASE, base)
    b.li(PTR, base)
    b.li(COUNT, spec["trips"])
    for reg, value in zip(DATA, spec["inits"]):
        b.li(reg, value)
    b.label("loop")
    b.ld(STRIDED, PTR, 0)              # the striding seed SVR and VR chase
    b.addi(PTR, PTR, STRIDE)
    pending: dict[int, list[str]] = {}   # body index -> labels placed there
    body = spec["body"]
    for index, item in enumerate(body):
        for label in pending.pop(index, ()):
            b.label(label)
        kind, op, *args = item
        if kind in ("rr", "ri", "li", "mv"):
            # Builder methods are named after the opcode ("and_" for AND).
            emit = getattr(b, op.value, None) or getattr(b, op.value + "_")
            emit(*args)
        elif kind in ("ld", "st"):
            reg, src, mask, disp = args
            b.andi(ADDR, src, mask)
            b.slli(ADDR, ADDR, 3)
            b.add(ADDR, BASE, ADDR)
            if kind == "ld":
                b.ld(reg, ADDR, disp)
            else:
                b.st(reg, ADDR, disp)
        elif kind == "nop":
            b.nop()
        else:                           # forward branch or jump
            *reg, skip = args
            label = f"fwd{index}"
            pending.setdefault(min(index + 1 + skip, len(body)),
                               []).append(label)
            if kind == "jmp":
                b.jmp(label)
            else:
                getattr(b, kind)(reg[0], label)
    for label in pending.pop(len(body), ()):
        b.label(label)
    b.addi(COUNT, COUNT, -1)
    b.bnez(COUNT, "loop")
    b.halt()
    return b.build(), memory


def _hierarchy(memory):
    return MemoryHierarchy(memory, MemoryConfig(stride_prefetcher=False))


def _final_state(core, memory):
    return core.pc, core.regs.snapshot(), memory.words.tobytes()


def run_timing(spec, kind):
    """Run one timing-core configuration to HALT; returns its final state
    and the transient unit it attached (or None)."""
    program, memory = build(spec)
    unit = None
    if kind in ("inorder", "svr16"):
        if kind == "svr16":
            unit = ScalarVectorUnit(SVRConfig(vector_length=16))
        core = InOrderCore(program, memory, _hierarchy(memory), svr=unit)
    else:
        if kind == "vr":
            unit = VectorRunaheadUnit()
        core = OutOfOrderCore(program, memory, _hierarchy(memory), vr=unit)
    core.run(MAX_INSTRUCTIONS)
    assert core.halted, f"{kind} did not reach HALT"
    return _final_state(core, memory), unit


def check_against_reference(spec):
    """Run *spec* on the reference and on every timing-core configuration,
    require the same final state from each, and return the transient units
    by configuration."""
    program, memory = build(spec)
    reference = FunctionalCore(program, memory)
    reference.run(MAX_INSTRUCTIONS)
    assert reference.halted
    expected = _final_state(reference, memory)

    units = {}
    for kind in ("inorder", "svr16", "ooo", "vr"):
        state, units[kind] = run_timing(spec, kind)
        assert state[0] == expected[0], f"{kind}: final pc"
        assert state[1] == expected[1], f"{kind}: registers"
        assert state[2] == expected[2], f"{kind}: memory image"
    return units


@settings(deadline=None)
@given(programs())
def test_timing_cores_match_functional_reference(spec):
    check_against_reference(spec)


@settings(deadline=None)
@given(programs())
def test_dynamic_chains_stay_inside_static_chains(spec):
    """The containment invariant of ``tests/test_static_vs_dynamic.py``
    on generated programs: every pc the SVR unit's rounds treated as
    dependent lies in the static taint chain of a seed it used, and a
    statically striding seed's rounds use its static stride.

    The same trace then validates the program's vectorization plan.
    Every claim must hold except memdep's *assumed* ``distinct-regions``
    independence: it is the claim the oracle exists to check, and the
    generator's one ``data`` array is a real counterexample to it."""
    program, memory = build(spec)
    oracle = collect_trace(program, memory, max_steps=MAX_INSTRUCTIONS)
    cfg = build_cfg(program)
    loads = {info.pc: info for info in StrideAnalysis(cfg).loads()}
    static_union = set(oracle.round_strides)
    for pc, strides in oracle.round_strides.items():
        static_union |= taint_chain(cfg, pc).chain_pcs
        if loads[pc].load_class is LoadClass.STRIDING:
            assert strides == {loads[pc].stride}, pc
    assert oracle.dependents <= static_union

    plan = build_plan(program)
    assumed = {(edge.src_pc, edge.dst_pc) for lp in plan.loops
               for edge in lp.deps.edges if edge.basis == "assumed"}
    for violation in validate_plan(program, plan, oracle).violations:
        assert (violation.kind == "independence"
                and violation.pcs in assumed
                and violation.detail.startswith(
                    "regions assumed disjoint")), str(violation)


def test_loop_shape_makes_svr_and_vr_act():
    """The generated loop shape drives both transient mechanisms: a
    striding seed with a dependent load, store and branch behind it."""
    spec = {
        "trips": 16,
        "inits": EXTREMES[:len(DATA)],
        "fill_seed": 1,
        "body": [
            ("ld", Opcode.LD, 10, STRIDED, WORDS - 1, 0),
            ("rr", Opcode.ADD, 11, 11, 10),
            ("st", Opcode.ST, 11, STRIDED, 31, 8),
            ("bnez", Opcode.BNEZ, 10, 1),
            ("rr", Opcode.MUL, 12, 12, 10),
        ],
    }
    units = check_against_reference(spec)
    assert units["svr16"].stats.prm_rounds > 0
    assert units["vr"].stats.episodes > 0

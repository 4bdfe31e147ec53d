"""One address lattice: load classes, plans and lint read the same
:class:`~repro.analysis.memdep.AddrExpr`, and an :class:`OracleRecorder`
run of the SVR unit referees each verdict.

Each program is a loop shape on which a second lattice could disagree
with memdep's: two affine paths that differ only in displacement, two
constants that differ by path, and a load-fed value made ``varying`` by
a loop-carried hash.
"""

from repro.analysis import (
    BATCHABLE,
    LoadClass,
    StrideAnalysis,
    build_cfg,
    build_plan,
    collect_trace,
    lint_program,
    validate_plan,
)
from repro.isa.program import ProgramBuilder

from conftest import make_memory

TRIPS = 64


def classify(program):
    return {info.pc: info for info in StrideAnalysis(build_cfg(program)).loads()}


def two_path_affine_program(base: int):
    """Load from ``a0+8i+16`` on even and ``a0+8i+8`` on odd iterations."""
    b = ProgramBuilder("two_path_affine")
    b.li("a0", base)
    b.li("t0", 0)
    b.li("t3", TRIPS)
    b.label("loop")
    b.slli("t1", "t0", 3)               # pc 3
    b.add("t1", "a0", "t1")
    b.andi("t4", "t0", 1)
    b.bnez("t4", "odd")
    b.addi("t1", "t1", 16)              # pc 7: even path
    b.jmp("join")
    b.label("odd")
    b.addi("t1", "t1", 8)               # pc 9: odd path
    b.label("join")
    b.ld("t2", "t1", 0)                 # pc 10
    b.addi("t0", "t0", 1)
    b.addi("t3", "t3", -1)
    b.bnez("t3", "loop")                # pc 13
    b.halt()
    return b.build()


def two_path_constant_program():
    """Load through ``t2``, set by ``li`` to one of two constants by path."""
    b = ProgramBuilder("two_path_constant")
    b.li("t0", 0)
    b.li("t3", TRIPS)
    b.label("loop")
    b.andi("t4", "t0", 1)               # pc 2
    b.bnez("t4", "odd")
    b.li("t2", 0x1000)
    b.jmp("join")
    b.label("odd")
    b.li("t2", 0x2000)
    b.label("join")
    b.ld("t5", "t2", 0)                 # pc 7
    b.addi("t0", "t0", 1)
    b.addi("t3", "t3", -1)
    b.bnez("t3", "loop")
    b.halt()
    return b.build()


def hashed_indirect_program(pointers: int):
    """Load from ``ptr[i] + s1``, where ``s1`` is loop-carried via ``xori``."""
    b = ProgramBuilder("hashed_indirect")
    b.li("a0", pointers)
    b.li("s1", 0)
    b.li("t0", 0)
    b.li("t3", TRIPS * 4)
    b.label("loop")
    b.slli("t1", "t0", 3)               # pc 4
    b.add("t1", "a0", "t1")
    b.ld("t2", "t1", 0)                 # pc 6: striding seed
    b.xori("s1", "s1", 64)
    b.add("t5", "t2", "s1")
    b.ld("t6", "t5", 0)                 # pc 9
    b.addi("t0", "t0", 1)
    b.addi("t3", "t3", -1)
    b.bnez("t3", "loop")
    b.halt()
    return b.build()


def test_two_path_affine_load_is_irregular_and_never_seeds():
    memory = make_memory()
    base = memory.alloc_zeros(TRIPS + 4, name="a")
    program = two_path_affine_program(base)

    info = classify(program)[10]
    assert info.load_class is LoadClass.IRREGULAR
    (loop,) = build_plan(program).loops
    assert loop.seeds == ()
    irregular = [r for r in loop.reasons if r.kind == "irregular-load"]
    assert [r.pcs for r in irregular] == [(10,)]
    codes = {d.code for d in lint_program(program).diagnostics}
    assert "W105" not in codes

    # Referee: the real stride alternates 0 and 16 bytes, so the stride
    # detector never gains confidence and the SVR unit never enters PRM.
    oracle = collect_trace(program, memory)
    assert oracle.commits > 2 * TRIPS
    assert oracle.real[10].count == TRIPS
    assert oracle.rounds == 0


def test_load_through_path_dependent_constant_is_irregular():
    memory = make_memory()
    program = two_path_constant_program()

    assert classify(program)[7].load_class is LoadClass.IRREGULAR

    oracle = collect_trace(program, memory)
    assert oracle.real[7].samples == {0x1000, 0x2000}


def test_load_fed_varying_value_is_indirect_on_its_seed():
    memory = make_memory()
    data = memory.alloc_zeros(TRIPS * 4 * 8 + 16, name="data")
    pointers = memory.alloc_array(
        [data + 64 * ((i * 37) % (TRIPS * 4)) for i in range(TRIPS * 4)],
        name="ptr")
    program = hashed_indirect_program(pointers)

    infos = classify(program)
    assert infos[6].load_class is LoadClass.STRIDING
    assert infos[6].stride == 8
    assert infos[9].load_class is LoadClass.INDIRECT
    assert infos[9].depends_on == (6,)

    # A load-fed load is not irregular: the plan vectorizes the loop on
    # its seed, and lint has no SCALAR_ONLY plan to warn about.
    plan = build_plan(program)
    (loop,) = plan.loops
    assert loop.verdict == BATCHABLE
    assert loop.seeds == ((6, 8),)
    assert not any(r.kind == "irregular-load" for r in loop.reasons)
    codes = {d.code for d in lint_program(program).diagnostics}
    assert "W105" not in codes

    # Referee: PRM rounds seed at pc 6, the dependent load issues SVIs,
    # and the plan holds against the run.
    oracle = collect_trace(program, memory)
    assert oracle.round_strides == {6: {8}}
    assert {8, 9} <= oracle.dependents
    assert oracle.svi[9].count > 0
    assert validate_plan(program, plan, oracle).ok

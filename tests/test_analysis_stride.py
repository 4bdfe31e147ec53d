"""Tests for induction-variable discovery and static load classification."""

from repro.analysis import LoadClass, StrideAnalysis, build_cfg
from repro.isa.program import ProgramBuilder
from repro.isa.registers import reg_index

from conftest import gather_program


def analyze(program):
    return StrideAnalysis(build_cfg(program))


def classes(program):
    return {info.pc: info.load_class for info in analyze(program).loads()}


class TestInductionVariables:
    def test_single_addi_update_is_iv(self):
        program = gather_program(0x1000, 0x2000, 8)
        sa = analyze(program)
        loop = sa.cfg.loops[0]
        ivs = sa.memdep.induction_variables(loop)
        assert set(ivs) == {reg_index("t0")}
        assert ivs[reg_index("t0")].step == 1

    def test_negative_step(self):
        b = ProgramBuilder("down")
        b.li("t0", 64)
        b.li("a0", 0x1000)
        b.label("loop")
        b.slli("t1", "t0", 3)
        b.add("t1", "a0", "t1")
        b.ld("t2", "t1", 0)
        b.addi("t0", "t0", -1)
        b.bnez("t0", "loop")
        b.halt()
        sa = analyze(b.build())
        info = sa.loads()[0]
        assert info.load_class is LoadClass.STRIDING
        assert info.stride == -8

    def test_multiple_updates_disqualify(self):
        b = ProgramBuilder("twoupd")
        b.li("t0", 0)
        b.label("loop")
        b.addi("t0", "t0", 1)
        b.addi("t0", "t0", 1)       # second update: not a basic IV
        b.cmp_lt("t1", "t0", "x0")
        b.bnez("t1", "loop")
        b.halt()
        sa = analyze(b.build())
        assert sa.memdep.induction_variables(sa.cfg.loops[0]) == {}


class TestClassification:
    def test_gather_striding_and_indirect(self):
        program = gather_program(0x1000, 0x2000, 8)
        infos = {i.pc: i for i in analyze(program).loads()}
        # pc 7: ld t2 <- idx[i], address affine in t0 scaled by 8.
        assert infos[7].load_class is LoadClass.STRIDING
        assert infos[7].stride == 8
        assert infos[7].iv_reg == reg_index("t0")
        # pc 10: ld t4 <- data[idx[i]], address derived from the pc-7 load.
        assert infos[10].load_class is LoadClass.INDIRECT
        assert infos[10].depends_on == (7,)

    def test_pointer_bump_is_striding(self):
        # The IV is the address register itself: p += 16 each iteration.
        b = ProgramBuilder("bump")
        b.li("a0", 0x1000)
        b.li("t0", 8)
        b.label("loop")
        b.ld("t1", "a0", 0)
        b.addi("a0", "a0", 16)
        b.addi("t0", "t0", -1)
        b.bnez("t0", "loop")
        b.halt()
        info = analyze(b.build()).loads()[0]
        assert info.load_class is LoadClass.STRIDING
        assert info.stride == 16
        assert info.iv_reg == reg_index("a0")

    def test_loop_invariant_address(self):
        b = ProgramBuilder("inv")
        b.li("a0", 0x1000)
        b.li("t0", 8)
        b.label("loop")
        b.ld("t1", "a0", 0)          # same address every iteration
        b.addi("t0", "t0", -1)
        b.bnez("t0", "loop")
        b.halt()
        info = analyze(b.build()).loads()[0]
        assert info.load_class is LoadClass.INVARIANT

    def test_hashed_index_is_irregular(self):
        # The xorshift shape of the SPEC cached archetype: the index is
        # loop-variant but neither affine nor load-derived.
        b = ProgramBuilder("hash")
        b.li("a1", 0x1000)
        b.li("t2", 12345)
        b.li("t0", 8)
        b.label("loop")
        b.srli("t3", "t2", 7)
        b.xor("t2", "t2", "t3")
        b.slli("t3", "t2", 3)
        b.add("t3", "a1", "t3")
        b.ld("t4", "t3", 0)
        b.addi("t0", "t0", -1)
        b.bnez("t0", "loop")
        b.halt()
        infos = analyze(b.build()).loads()
        assert [i.load_class for i in infos] == [LoadClass.IRREGULAR]

    def test_load_outside_any_loop(self):
        b = ProgramBuilder("flat")
        b.li("a0", 0x1000)
        b.ld("t0", "a0", 0)
        b.halt()
        info = analyze(b.build()).loads()[0]
        assert info.load_class is LoadClass.NONLOOP
        assert info.loop_header is None

    def test_muli_scaled_index(self):
        b = ProgramBuilder("muli")
        b.li("a0", 0x1000)
        b.li("t0", 0)
        b.label("loop")
        b.muli("t1", "t0", 24)       # 3-word records
        b.add("t1", "a0", "t1")
        b.ld("t2", "t1", 0)
        b.addi("t0", "t0", 1)
        b.cmp_lt("t3", "t0", "x0")
        b.bnez("t3", "loop")
        b.halt()
        info = analyze(b.build()).loads()[0]
        assert info.load_class is LoadClass.STRIDING
        assert info.stride == 24

    def test_two_iv_sum_is_not_affine(self):
        # address = base + (i + j) with two IVs stepping together is not
        # affine in a single basic IV.
        b = ProgramBuilder("twoiv")
        b.li("a0", 0x1000)
        b.li("t0", 0)
        b.li("s0", 0)
        b.label("loop")
        b.add("t1", "t0", "s0")
        b.slli("t1", "t1", 3)
        b.add("t1", "a0", "t1")
        b.ld("t2", "t1", 0)
        b.addi("t0", "t0", 1)
        b.addi("s0", "s0", 2)
        b.cmp_lt("t3", "t0", "x0")
        b.bnez("t3", "loop")
        b.halt()
        info = analyze(b.build()).loads()[0]
        assert info.load_class is LoadClass.IRREGULAR


class TestAgainstWorkloads:
    def test_spec_stream_is_striding(self):
        from repro.workloads.registry import build_workload

        wl = build_workload("mcf", scale="tiny")
        sa = StrideAnalysis(build_cfg(wl.program))
        cls = [i.load_class for i in sa.loads()]
        assert LoadClass.IRREGULAR in cls       # cached xorshift archetype

    def test_nas_is_histogram_shape(self):
        from repro.workloads.registry import build_workload

        wl = build_workload("NAS-IS", scale="tiny")
        sa = StrideAnalysis(build_cfg(wl.program))
        by_class = {}
        for info in sa.loads():
            by_class.setdefault(info.load_class, []).append(info)
        assert len(by_class[LoadClass.STRIDING]) == 1
        assert by_class[LoadClass.STRIDING][0].stride == 8
        assert len(by_class[LoadClass.INDIRECT]) == 1

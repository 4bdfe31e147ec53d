"""Static-vs-dynamic cross-validation (the analysis subsystem's ground
truth): for every GAP kernel, the chain the dynamic SVR unit actually
vectorizes must be contained in the chain the static taint analysis
predicts, and dynamically detected strides must match the static ones.

The static chain is a safe over-approximation — it propagates taint
flow-insensitively and never untaints — so containment, not equality, is
the invariant.  Equality cannot hold in general: runahead rounds see only
a window of the execution, and the dynamic tracker untaints registers
that are overwritten with clean values.

The dynamic side is read from an :class:`OracleRecorder` attached to the
SVR unit: ``round_strides`` (the strides each seed's PRM rounds used) and
``dependents`` (every pc that read a tainted register in PRM).
"""

import pytest

from repro.analysis import (
    LoadClass,
    StrideAnalysis,
    build_cfg,
    collect_trace,
    taint_chain,
)
from repro.isa.program import ProgramBuilder
from repro.workloads.registry import GAP_KERNELS, build_workload

from conftest import build_gather_workload, make_memory

RUN_STEPS = 20_000


def run_dynamic(program, memory, steps=RUN_STEPS):
    return collect_trace(program, memory, max_steps=steps)


def static_tools(program):
    cfg = build_cfg(program)
    analysis = StrideAnalysis(cfg)
    return cfg, {info.pc: info for info in analysis.loads()}


def assert_dynamic_subset_of_static(program, oracle, name):
    cfg, loads = static_tools(program)
    seeds = set(oracle.round_strides)
    assert seeds, f"{name}: SVR never seeded a chain in {RUN_STEPS} steps"
    static_union = set(seeds)
    for pc in seeds:
        static_union |= taint_chain(cfg, pc).chain_pcs
    escaped = oracle.dependents - static_union
    assert not escaped, (
        f"{name}: dynamic chain pcs {sorted(escaped)} missing from the "
        f"static chains of seeds {sorted(seeds)}")
    return loads, seeds


class TestGather:
    def test_gather_dynamic_chain_is_subset(self):
        program, memory = build_gather_workload()
        oracle = run_dynamic(program, memory)
        loads, seeds = assert_dynamic_subset_of_static(
            program, oracle, "gather")
        # The striding index load is the (only) seed, statically and
        # dynamically.
        assert seeds == {7}
        assert loads[7].load_class is LoadClass.STRIDING

    def test_gather_strides_agree(self):
        program, memory = build_gather_workload()
        oracle = run_dynamic(program, memory)
        _, loads = static_tools(program)
        assert oracle.round_strides[7] == {loads[7].stride}


def x0_sink_program(array_base: int, target: int, trips: int):
    """A striding seed whose only direct reader writes ``x0``; the next
    reader of ``x0`` therefore always sees zero and loads ``target``."""
    b = ProgramBuilder("x0_sink")
    b.li("a0", array_base)
    b.li("a1", target)
    b.li("t0", 0)
    b.li("t3", trips)
    b.label("loop")
    b.slli("t1", "t0", 3)               # pc 4
    b.add("t1", "a0", "t1")
    b.ld("t2", "t1", 0)                 # pc 6: striding seed
    b.add("x0", "t2", "t2")             # pc 7: dropped write
    b.add("t4", "x0", "a1")             # pc 8: t4 = a1
    b.ld("t5", "t4", 0)                 # pc 9: always reads a1
    b.addi("t0", "t0", 1)
    b.addi("t3", "t3", -1)
    b.bnez("t3", "loop")
    b.halt()
    return b.build()


class TestX0:
    def test_write_to_x0_never_taints_it(self):
        """The register file drops ``x0`` writes and the static taint
        never taints ``x0``; the SVR unit must agree, or every later
        reader of ``x0`` joins the chain with lane values."""
        trips = 256
        memory = make_memory()
        array_base = memory.alloc_array([8 * i for i in range(trips)],
                                        name="a")
        target = memory.alloc_zeros(2 * trips, name="target")
        program = x0_sink_program(array_base, target, trips)
        oracle = run_dynamic(program, memory)
        cfg, loads = static_tools(program)
        assert loads[6].load_class is LoadClass.STRIDING
        assert taint_chain(cfg, 6).chain_pcs == {7}
        assert oracle.round_strides == {6: {8}}
        assert oracle.dependents == {7}
        assert 9 not in oracle.svi
        assert oracle.real[9].min_addr == oracle.real[9].max_addr == target


@pytest.mark.parametrize("kernel", GAP_KERNELS)
class TestGapKernels:
    def test_dynamic_chain_is_subset_of_static(self, kernel):
        workload = build_workload(f"{kernel}_KR", scale="tiny")
        oracle = run_dynamic(workload.program, workload.memory)
        assert_dynamic_subset_of_static(workload.program, oracle, kernel)

    def test_strides_agree_on_static_striding_seeds(self, kernel):
        workload = build_workload(f"{kernel}_KR", scale="tiny")
        oracle = run_dynamic(workload.program, workload.memory)
        _, loads = static_tools(workload.program)
        overlap = 0
        for pc, observed_strides in oracle.round_strides.items():
            info = loads.get(pc)
            if info is None or info.load_class is not LoadClass.STRIDING:
                # A statically indirect load can look striding for a
                # window (e.g. BFS queue offsets); no stride to compare.
                continue
            overlap += 1
            assert observed_strides == {info.stride}, (
                f"{kernel}: pc {pc} detected strides "
                f"{sorted(observed_strides)} but static says {info.stride}")
        # At least one dynamically seeded load per kernel must be one the
        # static analysis also calls striding.
        assert overlap > 0, (
            f"{kernel}: no dynamically seeded pc is statically striding")

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
from repro.workloads.registry import GAP_KERNELS, build_workload

from conftest import build_gather_workload

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

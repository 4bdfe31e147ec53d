"""Broad integration sweep: every registry workload simulates sanely on
every core family at tiny scale."""

import pytest

from repro.harness.runner import run
from repro.workloads.registry import (
    GAP_WORKLOADS,
    HPC_WORKLOADS,
    build_workload,
)


class TestGapMatrix:
    @pytest.mark.parametrize("name", GAP_WORKLOADS)
    def test_runs_on_svr16(self, name):
        result = run(name, "svr16", scale="tiny", warmup=500, measure=1500)
        assert result.core.instructions > 0
        assert 0.1 < result.cpi < 50.0
        # SVR triggered on every graph kernel/input combination.
        assert result.svr.prm_rounds > 0, name

    @pytest.mark.parametrize("kernel", ["PR", "CC"])
    def test_svr_speedup_on_every_input(self, kernel):
        """The gather-heavy kernels speed up on all five inputs."""
        for graph_input in ("KR", "UR", "LJN", "TW", "ORK"):
            name = f"{kernel}_{graph_input}"
            base = run(name, "inorder", scale="tiny")
            svr = run(name, "svr16", scale="tiny")
            assert svr.ipc > base.ipc, name


class TestHpcMatrix:
    @pytest.mark.parametrize("name", HPC_WORKLOADS)
    def test_runs_on_all_cores(self, name):
        for tech in ("inorder", "ooo", "svr16"):
            result = run(name, tech, scale="tiny", warmup=400, measure=1200)
            assert result.core.instructions == 1200, (name, tech)

    @pytest.mark.parametrize("name", HPC_WORKLOADS)
    def test_workload_names_consistent(self, name):
        workload = build_workload(name, "tiny")
        assert workload.name == name
        assert workload.category == "hpc"


# SVR cells checked against the functional core, besides NAS-IS.  Their
# rounds cover clean striding gathers (Camel), lanes masked by divergent
# branches (HJ2, HJ8), transient stores and may-alias loads (Randacc,
# Kangr, BFS_KR), loops of mixed vectorization legality (NAS-CG, CC_KR),
# and a pointer chase that never enters runahead (mcf).
SVR_REFERENCE_CELLS = (
    ("Camel", "svr16"),
    ("Camel", "svr64"),
    ("HJ2", "svr16"),
    ("HJ8", "svr16"),
    ("Randacc", "svr16"),
    ("Kangr", "svr16"),
    ("BFS_KR", "svr16"),
    ("NAS-CG", "svr16"),
    ("CC_KR", "svr16"),
    ("mcf", "svr16"),
)


def _assert_svr_matches_functional(name: str, tech: str) -> None:
    """SVIs are transient: after an SVR run, pc, registers and the whole
    memory image equal a functional run over the same number of committed
    instructions."""
    import numpy as np

    from repro.cores.functional import FunctionalCore
    from repro.cores.inorder import InOrderCore
    from repro.harness.runner import technique
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.svr.unit import ScalarVectorUnit

    config = technique(tech)
    svr_wl = build_workload(name, "tiny")
    hierarchy = MemoryHierarchy(svr_wl.memory, config.memory)
    svr_core = InOrderCore(svr_wl.program, svr_wl.memory, hierarchy,
                           svr=ScalarVectorUnit(config.svr))
    svr_core.run(5000)

    ref_wl = build_workload(name, "tiny")
    ref = FunctionalCore(ref_wl.program, ref_wl.memory)
    ref.run(svr_core.lifetime_instructions)

    assert svr_core.pc == ref.pc
    assert svr_core.regs.snapshot() == ref.regs.snapshot()
    assert np.array_equal(svr_wl.memory.words, ref_wl.memory.words)


class TestCrossCoreConsistency:
    """The same program must compute the same values on every core."""

    @pytest.mark.parametrize("name", ["Camel", "NAS-IS", "HJ2"])
    def test_architectural_state_core_independent(self, name):
        from repro.cores.functional import FunctionalCore
        from repro.cores.ooo import OutOfOrderCore
        from repro.cores.inorder import InOrderCore
        from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy

        snapshots = []
        for kind in ("functional", "inorder", "ooo"):
            workload = build_workload(name, "tiny")
            if kind == "functional":
                core = FunctionalCore(workload.program, workload.memory)
                core.run(3000)
            else:
                hierarchy = MemoryHierarchy(workload.memory, MemoryConfig())
                cls = InOrderCore if kind == "inorder" else OutOfOrderCore
                core = cls(workload.program, workload.memory, hierarchy)
                core.run(3000)
            snapshots.append((core.pc, core.regs.snapshot()))
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_svr_never_changes_architectural_state(self):
        # NAS-IS: SVR rounds run its histogram-increment stores
        # transiently; none may reach memory.
        _assert_svr_matches_functional("NAS-IS", "svr16")

    @pytest.mark.parametrize("name,tech", SVR_REFERENCE_CELLS,
                             ids=[f"{w}-{t}" for w, t in SVR_REFERENCE_CELLS])
    def test_svr_cell_matches_functional_reference(self, name, tech):
        _assert_svr_matches_functional(name, tech)


class TestProgramTools:
    def test_disassemble_contains_labels_and_ops(self):
        workload = build_workload("Camel", "tiny")
        text = workload.program.disassemble()
        assert "loop:" in text
        assert "ld" in text and "-> loop" in text

    def test_disassemble_window(self):
        workload = build_workload("Camel", "tiny")
        text = workload.program.disassemble(0, 3)
        assert text.count("\n") <= 3

    def test_summary_text(self):
        result = run("Camel", "svr16", scale="tiny")
        text = result.summary()
        assert "Camel on svr16" in text
        assert "SVR:" in text and "CPI stack" in text

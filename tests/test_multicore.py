"""Tests for the multicore extension (paper Section VI-E)."""

import pytest

from repro.harness.multicore import MulticoreResult, run_multicore, scaling_study
from repro.harness.runner import run


class TestRunMulticore:
    @pytest.mark.parametrize("tech", ["inorder", "imp", "ooo", "svr16", "vr"])
    def test_one_core_equals_run(self, tech):
        # One core over its own DRAM channel is the single-core run: the
        # same technique must build the same core, SVR or VR unit included.
        multi = run_multicore(["Camel"], tech, scale="tiny", warmup=1_000,
                              measure=3_000)
        single = run("Camel", tech, scale="tiny", warmup=1_000,
                     measure=3_000)
        (stats,) = multi.per_core
        assert stats.instructions == single.core.instructions
        assert stats.cycles == single.core.cycles

    def test_single_core_matches_shape_of_runner(self):
        result = run_multicore(["Camel"], "inorder", scale="tiny",
                               warmup=500, measure=2000)
        assert result.num_cores == 1
        assert result.per_core[0].instructions == 2000
        assert result.aggregate_ipc > 0

    def test_cores_share_the_dram_channel(self):
        solo = run_multicore(["Camel"], "inorder", scale="tiny",
                             warmup=500, measure=2000)
        duo = run_multicore(["Camel", "Camel"], "inorder", scale="tiny",
                            warmup=500, measure=2000)
        assert duo.num_cores == 2
        assert duo.dram_lines > solo.dram_lines
        assert duo.dram_utilisation > solo.dram_utilisation * 1.2

    def test_aggregate_ipc_sums_cores(self):
        duo = run_multicore(["Camel", "Camel"], "inorder", scale="tiny",
                            warmup=500, measure=2000)
        solo = run_multicore(["Camel"], "inorder", scale="tiny",
                             warmup=500, measure=2000)
        # Two latency-bound in-order cores barely contend: ~2x throughput.
        assert duo.aggregate_ipc > 1.5 * solo.aggregate_ipc

    def test_heterogeneous_workloads(self):
        result = run_multicore(["Camel", "PR_UR"], "svr16", scale="tiny",
                               warmup=500, measure=2000)
        assert result.workloads == ("Camel", "PR_UR")
        assert all(s.instructions == 2000 for s in result.per_core)

    def test_svr_multicore_beats_inorder_multicore(self):
        base = run_multicore(["Camel"] * 2, "inorder", scale="tiny",
                             warmup=500, measure=2000)
        svr = run_multicore(["Camel"] * 2, "svr16", scale="tiny",
                            warmup=500, measure=2000)
        assert svr.aggregate_ipc > 1.5 * base.aggregate_ipc

    def test_unknown_core_kind_rejected(self):
        from repro.harness.runner import TechniqueConfig

        with pytest.raises(ValueError):
            run_multicore(["Camel"], TechniqueConfig("bad", core="vliw"),
                          scale="tiny")

    def test_result_helpers(self):
        result = MulticoreResult("svr16", ("Camel",))
        assert result.aggregate_ipc == 0.0
        assert result.mean_cpi == 0.0


class TestScalingStudy:
    def test_structure_and_monotonicity(self):
        out = scaling_study("Camel", techniques=("inorder", "svr16"),
                            core_counts=(1, 2), scale="tiny", measure=2000)
        assert set(out) == {"inorder", "svr16"}
        for series in out.values():
            assert series[2] > series[1]     # more cores, more throughput
        # SVR's per-core advantage survives sharing the channel.
        assert out["svr16"][2] > 1.5 * out["inorder"][2]

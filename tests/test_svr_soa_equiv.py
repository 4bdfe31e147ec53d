"""Pinned cell fingerprints, and the lane-state bug pins.

Each cell pins its tiny-scale ``SimResult.to_dict()`` export byte for
byte, and the metric snapshot an attached ``RunObservation`` reports for
it.  The SVR cells at vector lengths 16 and 64 hold the exports that a
numpy structure-of-arrays lane engine and the per-lane loops in
``repro.svr.unit`` (now the only lane engine) agreed on.  The non-SVR
cells hold the exports of the in-order and out-of-order steps taken while
they still called ``repro.isa.executor.execute``, so the inlined step must
keep reproducing them.  The metric digests were taken while every counter
was still counted from probe events, so the counters read off the stats
objects must keep reproducing them.  A deliberate timing-model change
that moves a cell re-derives its digests with ``_sha`` and says why in
CHANGES.md.

Also here: regression pins for three lane-state bugs: the unmasked
invalid store-source lane, the SRF-exhaustion taint that kept a stale
mapping, and SRF release leaving valid bits set.
"""

import hashlib
import json

import pytest

from repro.harness.runner import run
from repro.isa.instructions import Instruction, Opcode
from repro.obs import RunObservation
from repro.svr.config import RecyclingPolicy, SVRConfig
from repro.svr.srf import SpeculativeRegisterFile
from repro.svr.stride_detector import StrideEntry
from repro.svr.taint_tracker import TaintTracker

from conftest import build_gather_workload, make_inorder

# Per cell, two sha256 digests of sorted-key JSON: the tiny-scale cell's
# ``SimResult.to_dict()`` export, and the metric snapshot of a
# ``RunObservation`` attached to the same run, without the ``exec.*``
# names.  The SVR cells cover clean striding gathers (Camel, at every
# vector length), divergent-branch lane masking (HJ2, HJ8), transient
# stores and may-alias loads (Randacc, Kangr, BFS_KR), loops of mixed
# vectorization legality (NAS-CG, CC_KR), and a pointer chase that never
# enters runahead (mcf).  The non-SVR cells pin the timing of the plain
# in-order step (inorder, imp) and of the out-of-order step (ooo, and vr
# for its runahead episodes).
CELL_DIGESTS = {
    ("Camel", "svr16"): (
        "28b65928c24c72d31830f58c151bc122f65324c4416d446e84eb5b88abfb2344",
        "d98d7f1a87280091da8b75ab57088617d0cdefa44267748d5c2baf01964d33b9"),
    ("Camel", "svr64"): (
        "e3d99d16690d2b30ee3ce3881273a0745d838057b31fae0aee6c00269a4d6ccf",
        "f8e5343d560019a6be0fe2910c0319301e6cba52c7869ba6680129e7ac96c66d"),
    ("HJ2", "svr16"): (
        "6affe6f73b104f1db24e95c30d9c7f5699f4f1476a7af3474be59f7bf57e07dc",
        "24fc8c97de3eecb2b60cb79331bfc60e7718c0de43ac4a63158b9e3705a249a1"),
    ("HJ8", "svr16"): (
        "ef7e59db131017e7079fbd3779ed745a1c7114879ffef79d4967ddd953514906",
        "23056846c9ab84e5adf055bfc7d845fb8130ca95c1e57516c99927c2d706b3ad"),
    ("Randacc", "svr16"): (
        "c1e5b04be8a348c81fe491e962fa0d674e8d2a950f791095c3537054698dc372",
        "4fe8589772d7f7c1663b48e0e50aaee37bb4d9b12222cc91df2c71082000ec32"),
    ("Kangr", "svr16"): (
        "c70264ffbbdc58b9dafdb89f2d57549d800f67f513861b14833eb705da9a99ed",
        "f674af7c77137b0309a6c1451cc49d828f172c0e3a2ebbff0246e6c7f7f7e38c"),
    ("BFS_KR", "svr16"): (
        "e469454d5eb9ce92497d906add373074c095dd3f5cb4f20b861825463c7decba",
        "bc51a280dc303b8d35b193d9f2f2e648947f210932f8cd1e80c1389923fa4fbf"),
    ("NAS-CG", "svr16"): (
        "84f951a2bc3991cd7b5260621eaf960b5e240dfcaac8e7274f5a2d5fd14f1713",
        "d658e11507c1cbdaae5a377a5a151d5bb7250acbb389b78151d6e34cfd4cb873"),
    ("CC_KR", "svr16"): (
        "324f4d5b2878d69227650e99351b4d6bc8ae7e108ffb68d44dbd67b50693757a",
        "60a13387e7b024f06cc469c5fb0c84dfa78ee3c6d589c29f5e7c31d8f6a31855"),
    ("mcf", "svr16"): (
        "dc38affb7c706881a43c42d1ef392e8a51dbe7fce73aff2bcf1e995c564e31a4",
        "4995709fca71e2e6f72faa039eeacb8742166e2cab4969296642e344005fc594"),
    ("Camel", "inorder"): (
        "f0eae287e5df7f97c26f7116fe9712e4f91212b245d9a84877fe0679014f7461",
        "57567d8b299feb10e1d132dbb032f9576b8b2a723cef805b939d347aa52e2b5a"),
    ("NAS-IS", "inorder"): (
        "19f8aec304f315a182b1b86a5d0bdc82d9465c678212fa32559da03343cd5909",
        "5e4c4db994e9810e54bfaccddb775e97854db78b5dfcdf6dd362ec47190469f8"),
    ("Camel", "imp"): (
        "9ba24598243623c7fa059dcc22bc0e7ccd2cb498a7dc6350dc0f70c8a502ea70",
        "4e73d817796b488f18251f652f74324dfaffad72a522fe63603627f8b38b07f5"),
    ("Camel", "ooo"): (
        "575e2bbb6d98aaed4d29b4c560d415b74aec8a8829e9205f5deb80af5d52c9b5",
        "6e7ee5b9c1e227377b15003a19e67a6b411020225fdd1e1c3ef6cf704035fbed"),
    ("HJ2", "ooo"): (
        "f1ec539072fdbef02a659291ba5aee31611d48e815fc0f4f96b7d15e71716258",
        "ff27104e9eb921d4d0316d0369feddf85ed86fbfdbe285f21ef3863a861eeccc"),
    ("NAS-IS", "ooo"): (
        "5e50ced84a4a4eaae2add3b2f12391a1680cf739c2c5167f6de59f5882e980ea",
        "fc39ee4b4e1de61da362675f11de8cc7f916f19491ed7ac2034596c6272743a8"),
    ("xz", "ooo"): (
        "177925b3f60e6dc4f46e2bb3f98727f210ded0218c9e69dedc53312411d010e1",
        "0871d2324a9e2a1e664c7484f1da031337e5d221c787e3ada33ad8d782b93a2e"),
    ("Camel", "vr"): (
        "dea44936f392a5da84324be032d6a8acab47846ea7064b73b4b863e1b4d745a3",
        "8108c757f257902066fda3d59ff39ee2bcf3802f246a9b8516bcc57c622a12ca"),
    ("Camel", "svr8"): (
        "c3a09e886b5629448312516ca65c7596845b6e4062effe21ea8d0dbe979f2c01",
        "a4075361a28f819f70c4ec842e11784c0d558207902003ed6dd95c007cd8d9ac"),
    ("Camel", "svr32"): (
        "83cc2249b15a4dc6c62c1de1f96b59630407c95a9e4de2b710b0c4107f1010a1",
        "3976c53f37d6c3ffd3d08cdc906c9f71be2ae9744f3934cb316ec6828f5e883c"),
    ("Camel", "svr128"): (
        "039fe9c92a945532b4baceb3a05e5899d151a74a5f28e786df2ea5b2b8956713",
        "97074ba1457bafa036f38c6cf2631be1a37af4e31480e780b3b0e125e13eaae9"),
}


def _sha(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def _digest(workload: str, tech_name: str) -> str:
    return _sha(run(workload, tech_name, scale="tiny").to_dict())


class TestFingerprintEquivalence:
    """Byte-identical end-to-end exports to the two-engine agreement."""

    @pytest.mark.parametrize("workload,tech", sorted(CELL_DIGESTS),
                             ids=[f"{w}-{t}" for w, t in
                                  sorted(CELL_DIGESTS)])
    def test_cell_identical_across_engines(self, workload, tech):
        assert _digest(workload, tech) == CELL_DIGESTS[(workload, tech)][0]

    @pytest.mark.parametrize("workload,tech", sorted(CELL_DIGESTS),
                             ids=[f"{w}-{t}" for w, t in
                                  sorted(CELL_DIGESTS)])
    def test_metric_snapshot_pinned(self, workload, tech):
        """The telemetry counters of an observed run, whatever path they
        are counted on, and the run's result (observation must not
        perturb it)."""
        obs = RunObservation()
        result = run(workload, tech, scale="tiny", obs=obs)
        metrics = {name: value
                   for name, value in obs.metrics_snapshot().items()
                   if not name.startswith("exec.")}
        assert (_sha(result.to_dict()), _sha(metrics)) == \
            CELL_DIGESTS[(workload, tech)]


class TestStoreLaneMaskingRegression:
    """Bug pin: an invalid store-source lane must be masked and counted.

    Before the fix, ``_generate_dependent_store`` skipped invalid source
    lanes with a bare ``continue`` — the lane kept issuing SVIs for the
    rest of the round even though its chain values were garbage.
    """

    def _prm_unit(self):
        program, memory = build_gather_workload(count=32)
        core, _, unit = make_inorder(program, memory, svr=SVRConfig())
        unit.in_prm = True
        unit.mask = [True] * unit.config.vector_length
        return unit

    def test_invalid_source_lane_is_masked_and_counted(self):
        unit = self._prm_unit()
        srf_id = unit.srf.allocate(5, unit.taint)
        unit.taint.map(5, srf_id, 0)
        for lane in range(8):      # lanes 8..15 stay invalid
            unit.srf.write_lane(srf_id, lane, 0x2_0000 + 8 * lane, 0.0)
        store = Instruction(Opcode.ST, rs1=5, rs2=6)
        unit._generate_dependent_store(0, store, issue_time=0.0)
        assert all(unit.mask[:8])
        assert not any(unit.mask[8:])
        assert unit.stats.masked_lanes == 8

    def test_masked_store_lane_stays_dead_for_later_svis(self):
        unit = self._prm_unit()
        srf_id = unit.srf.allocate(5, unit.taint)
        unit.taint.map(5, srf_id, 0)
        unit.srf.write_lane(srf_id, 0, 0x2_0000, 0.0)   # only lane 0 valid
        store = Instruction(Opcode.ST, rs1=5, rs2=6)
        unit._generate_dependent_store(0, store, issue_time=0.0)
        assert unit._active_lanes() == [0]


class TestSrfExhaustionTaintRegression:
    """Bug pin: allocation failure must leave the register *unmapped*.

    Before the fix the stride-SVI path set ``tainted = True`` but left a
    stale ``mapped`` / ``srf_id`` from a previous mapping, so consumers
    could read a recycled SRF vector belonging to another register.
    ``unmap`` / ``untaint`` / ``clear`` already reset ``srf_id`` today, so
    the pins plant the stale record directly: the failure path must clear
    it whatever state it finds.
    """

    def _exhausted_unit(self):
        program, memory = build_gather_workload(count=32)
        core, _, unit = make_inorder(
            program, memory,
            svr=SVRConfig(srf_entries=1, recycling=RecyclingPolicy.DVR))
        unit.in_prm = True
        unit.mask = [True] * unit.config.vector_length
        srf_id = unit.srf.allocate(1, unit.taint)
        unit.taint.map(1, srf_id, 0)   # the single entry is now live
        return unit

    def test_stride_path_taints_without_mapping(self):
        unit = self._exhausted_unit()
        unit.taint.entry(2).srf_id = 0      # stale record of a lost mapping
        entry = StrideEntry(pc=4, prev_addr=0x2_0000, stride=8, confidence=3)
        load = Instruction(Opcode.LD, rd=2, rs1=3)
        unit._generate_stride_svis(entry, load, 0x2_0000, 0.0,
                                   shared_mask=False, length=4)
        tentry = unit.taint.entry(2)
        assert tentry.tainted
        assert not tentry.mapped
        assert tentry.srf_id == -1
        assert not unit.taint.is_vectorizable(2)

    def test_dependent_path_taints_without_mapping(self):
        unit = self._exhausted_unit()
        unit.taint.entry(2).srf_id = 0      # stale record of a lost mapping
        unit._write_dest_lanes(2, [(0, 7, 1.0)])
        tentry = unit.taint.entry(2)
        assert tentry.tainted
        assert not tentry.mapped
        assert tentry.srf_id == -1

    def test_taint_unmapped_helper_contract(self):
        taint = TaintTracker()
        taint.map(3, srf_id=2, offset=0)
        taint.taint_unmapped(3)
        entry = taint.entry(3)
        assert entry.tainted
        assert not entry.mapped
        assert entry.srf_id == -1
        assert taint.is_tainted(3)
        assert not taint.is_vectorizable(3)


class TestReleaseAllValidBitsRegression:
    """Bug pin: ``release_all`` must invalidate every lane."""

    def test_release_all_clears_valid_bits(self):
        srf = SpeculativeRegisterFile(4, 16, RecyclingPolicy.LRU)
        taint = TaintTracker()
        srf_id = srf.allocate(3, taint)
        srf.write_lane(srf_id, 0, 7, 1.0)
        srf.write_lane(srf_id, 5, 9, 2.0)
        srf.release_all()
        assert not any(any(lanes) for lanes in srf.valid)

    def test_release_single_clears_valid_bits(self):
        srf = SpeculativeRegisterFile(4, 16, RecyclingPolicy.LRU)
        taint = TaintTracker()
        srf_id = srf.allocate(3, taint)
        srf.write_lane(srf_id, 2, 7, 1.0)
        srf.release(srf_id)
        assert not any(srf.valid[srf_id])

    def test_reused_entry_never_exposes_stale_lane(self):
        srf = SpeculativeRegisterFile(1, 8, RecyclingPolicy.LRU)
        taint = TaintTracker()
        first = srf.allocate(3, taint)
        taint.map(3, first, 0)
        srf.write_lane(first, 4, 0xDEAD, 1.0)
        srf.release_all()
        taint.clear()
        second = srf.allocate(9, taint)
        _, _, valid = srf.read_lane(second, 4)
        assert not valid

"""Lane-engine equivalence fingerprints, and the lane-state bug pins.

The per-lane loops in ``repro.svr.unit`` are the SVR unit's only lane
engine.  While a numpy structure-of-arrays engine existed beside them,
every cell below exported byte-identical ``SimResult.to_dict()`` under
both engines.  The digests pinned here are those agreed exports, so the
remaining engine must keep reproducing them.  A deliberate timing-model
change that moves a cell re-derives its digest with ``_digest`` and says
why in CHANGES.md.

Also here: regression pins for three lane-state bugs: the unmasked
invalid store-source lane, the SRF-exhaustion taint that kept a stale
mapping, and SRF release leaving valid bits set.
"""

import hashlib
import json

import pytest

from repro.harness.runner import run
from repro.isa.instructions import Instruction, Opcode
from repro.svr.config import RecyclingPolicy, SVRConfig
from repro.svr.srf import SpeculativeRegisterFile
from repro.svr.stride_detector import StrideEntry
from repro.svr.taint_tracker import TaintTracker

from conftest import build_gather_workload, make_inorder

# sha256 of the sorted-key JSON export of each tiny-scale cell.  The cells
# cover clean striding gathers (Camel), divergent-branch lane masking
# (HJ2, HJ8), transient stores and may-alias loads (Randacc, Kangr,
# BFS_KR), loops of mixed vectorization legality (NAS-CG, CC_KR), and a
# pointer chase that never enters runahead (mcf).
CELL_DIGESTS = {
    ("Camel", "svr16"):
        "28b65928c24c72d31830f58c151bc122f65324c4416d446e84eb5b88abfb2344",
    ("Camel", "svr64"):
        "e3d99d16690d2b30ee3ce3881273a0745d838057b31fae0aee6c00269a4d6ccf",
    ("HJ2", "svr16"):
        "6affe6f73b104f1db24e95c30d9c7f5699f4f1476a7af3474be59f7bf57e07dc",
    ("HJ8", "svr16"):
        "ef7e59db131017e7079fbd3779ed745a1c7114879ffef79d4967ddd953514906",
    ("Randacc", "svr16"):
        "c1e5b04be8a348c81fe491e962fa0d674e8d2a950f791095c3537054698dc372",
    ("Kangr", "svr16"):
        "c70264ffbbdc58b9dafdb89f2d57549d800f67f513861b14833eb705da9a99ed",
    ("BFS_KR", "svr16"):
        "e469454d5eb9ce92497d906add373074c095dd3f5cb4f20b861825463c7decba",
    ("NAS-CG", "svr16"):
        "84f951a2bc3991cd7b5260621eaf960b5e240dfcaac8e7274f5a2d5fd14f1713",
    ("CC_KR", "svr16"):
        "324f4d5b2878d69227650e99351b4d6bc8ae7e108ffb68d44dbd67b50693757a",
    ("mcf", "svr16"):
        "dc38affb7c706881a43c42d1ef392e8a51dbe7fce73aff2bcf1e995c564e31a4",
}


def _digest(workload: str, tech_name: str) -> str:
    result = run(workload, tech_name, scale="tiny")
    export = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(export.encode()).hexdigest()


class TestFingerprintEquivalence:
    """Byte-identical end-to-end exports to the two-engine agreement."""

    @pytest.mark.parametrize("workload,tech", sorted(CELL_DIGESTS),
                             ids=[f"{w}-{t}" for w, t in
                                  sorted(CELL_DIGESTS)])
    def test_cell_identical_across_engines(self, workload, tech):
        assert _digest(workload, tech) == CELL_DIGESTS[(workload, tech)]


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

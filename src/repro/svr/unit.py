"""The Scalar Vector Unit: piggyback runahead on the in-order core.

This module implements Sections IV-A and IV-B of the paper end to end:

* **Triggering** — every committed load consults the stride detector; a
  confident striding load outside its waiting range enters piggyback
  runahead mode (PRM), setting the HSLR.
* **Stride SVIs** — on PRM entry, N' scalar copies of the striding load
  are issued at future addresses (N' chosen by the loop-bound policy);
  lane values land in a speculative register file (SRF) entry mapped to
  the load's destination register through the taint tracker.
* **Dependent SVIs** — while in PRM, any real instruction reading a
  tainted-and-mapped register is cloned per active lane at the point it
  issues (lockstep coupling); dependent loads issue prefetches whose start
  waits on the source lane's readiness (the scoreboard return counter of
  Section IV-A4).
* **Control flow** — per-lane branch outcomes that diverge from the real
  path clear lane mask bits (one shared mask in the HSLR, Section IV-B1).
* **Termination** — reaching the HSLR load again, a 256-instruction
  timeout, or a retarget; the taint tracker and SRF are then cleared and
  the stride entry's Last Prefetch range implements waiting mode.
* **Multiple chains** — nested / unrolled / independent loops via the
  per-entry Seen bits (Section IV-A6, Fig 9).
* **Throttling** — the loop-bound unit decides N' (Fig 15 policies); the
  accuracy monitor can ban triggering entirely (Section IV-A7).

Lane execution is the paper's own model (Section IV-A): each SVI issues
as N scalar copies, so every lane is one iteration of a plain Python loop
over the speculative register file's per-entry lane lists and the HSLR
lane mask (a list of bools).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from repro.isa.executor import alu_fn
from repro.isa.instructions import OpClass
from repro.isa.registers import wrap64
from repro.obs.probes import default_bus
from repro.svr.accuracy import AccuracyMonitor
from repro.svr.config import SVRConfig
from repro.svr.loop_bound import LoopBoundUnit
from repro.svr.overhead import overhead_kib
from repro.svr.srf import SpeculativeRegisterFile
from repro.svr.stride_detector import StrideDetector, StrideEntry
from repro.svr.taint_tracker import TaintTracker


@dataclass
class SvrStats:
    """Counters of simulated SVR behaviour for one measured region
    (reset with the core's stats)."""

    prm_rounds: int = 0
    svi_lanes: int = 0            # scalar copies issued (all classes)
    svi_load_lanes: int = 0       # scalar copies that were loads
    masked_lanes: int = 0
    retargets: int = 0
    unrolled_chains: int = 0
    terminations: dict[str, int] = field(
        default_factory=lambda: {"hslr": 0, "timeout": 0, "retarget": 0})
    rounds_skipped_zero_length: int = 0
    rounds_blocked_by_monitor: int = 0
    waiting_skips: int = 0        # striding loads inside the waiting range
    table_accesses: int = 0

    @property
    def transient_instructions(self) -> int:
        return self.svi_lanes


class ScalarVectorUnit:
    """SVR attachment for :class:`repro.cores.inorder.InOrderCore`."""

    def __init__(self, config: SVRConfig | None = None, bus=None) -> None:
        self.config = config or SVRConfig()
        cfg = self.config
        self.bus = bus if bus is not None else default_bus()
        self._p_enter = self.bus.probe("svr.prm_enter")
        self._p_exit = self.bus.probe("svr.prm_exit")
        self._p_svi = self.bus.probe("svr.svi")
        self.detector = StrideDetector(cfg.stride_detector_entries,
                                       cfg.stride_confidence_threshold,
                                       cfg.ewma_cap)
        self.detector.probe = self.bus.probe("predictor.stride_run")
        self.taint = TaintTracker()
        self.srf = SpeculativeRegisterFile(cfg.srf_entries, cfg.vector_length,
                                           cfg.recycling)
        self.loop_bound = LoopBoundUnit()
        self.loop_bound.probe = self.bus.probe("predictor.loop_bound")
        self.monitor = AccuracyMonitor(cfg.accuracy_threshold,
                                       cfg.accuracy_warmup_events,
                                       cfg.accuracy_reset_interval,
                                       cfg.accuracy_enabled)
        self.stats = SvrStats()
        # Opt-in dynamic oracle (repro.analysis.oracle.OracleRecorder).
        # When None — the default — every hook site pays one `is not None`
        # test, keeping the simulator hot path clean.
        self.oracle = None
        self.core = None
        self._context_slots = None      # decoupled-context ablation
        self.in_prm = False
        self.hslr_pc: int | None = None
        self.mask = [False] * cfg.vector_length     # HSLR lane mask
        self._prm_instructions = 0      # main-thread instrs since PRM entry
        self._prm_enter_time = 0.0      # issue time of the triggering load
        self._lil_offset = 0            # offset of last dependent load SVI
        self._generation_stopped = False

    # -- wiring -----------------------------------------------------------------

    def attach(self, core) -> None:
        self.core = core
        core.hierarchy.accuracy_listener = self.monitor
        if self.config.decoupled_context:
            from repro.cores.base import IssueSlots

            self._context_slots = IssueSlots(core.config.width)

    def _svi_slot(self, earliest: float) -> float:
        """Reserve an issue slot for one SVI group.

        Lockstep (default): the main thread's real issue slots.
        Decoupled ablation: a free second context's slots.
        """
        if self._context_slots is not None:
            time = self._context_slots.allocate(earliest)
            if time + 1.0 > self.core.stats.end_cycle:
                self.core.stats.end_cycle = time + 1.0
            return time
        return self.core.issue_transient(earliest)

    def reset_stats(self) -> None:
        self.stats = SvrStats()
        self.monitor.bans = 0

    @property
    def state_kib(self) -> float:
        """SVR SRAM overhead for the energy model (Table II)."""
        return overhead_kib(self.config.vector_length, self.config.srf_entries)

    # -- core callback ----------------------------------------------------------

    def after_issue(self, pc: int, inst, issue_time: float, result,
                    outcome) -> None:
        """Called by the core for every committed instruction."""
        cfg = self.config
        if cfg.accuracy_enabled:
            self.monitor.tick()
        opclass = inst.opclass
        p_svi = self._p_svi
        svi_before = self.stats.svi_lanes if p_svi.enabled else 0
        if self.oracle is not None:
            self.oracle.observe_commit(pc, inst, result)

        if self.in_prm:
            self._prm_instructions += 1

        # Last Compare register maintenance (Section IV-B2).
        if opclass is OpClass.CMP:
            self.loop_bound.observe_compare(pc, result.src_a, result.src_b,
                                            inst.rs1, inst.rs2, inst.rd)
        else:
            # Inlined LoopBoundUnit.observe_write(pc, inst.rd,
            # is_compare=False): reset the LC when its flag destination is
            # overwritten by a non-compare op.
            lc = self.loop_bound.lc
            if lc.valid and inst.rd is not None and inst.rd == lc.dest:
                lc.reset()
        if inst.is_branch:
            self.loop_bound.train_on_branch(pc, inst.target, result.taken,
                                            inst.rs1, self.hslr_pc)

        started_round = False
        if inst.is_load:
            started_round = self._stride_logic(pc, inst, result, issue_time)

        if self.in_prm and not started_round:
            self._dependent_logic(pc, inst, result, issue_time)

        if (self.in_prm
                and self._prm_instructions > cfg.timeout_instructions):
            self._terminate("timeout", issue_time)

        if p_svi.enabled:
            delta = self.stats.svi_lanes - svi_before
            if delta:
                p_svi.emit(pc=pc, time=issue_time, lanes=delta)

    # -- trigger / multi-chain logic (Section IV-A6) ------------------------------

    def _stride_logic(self, pc: int, inst, result, issue_time: float) -> bool:
        """Handle a committed load; returns True if it generated stride SVIs."""
        obs = self.detector.observe(pc, result.address)
        entry = obs.entry
        self.stats.table_accesses += 1
        if obs.ended_run:
            self.loop_bound.train_tournament(entry, obs.run_length)
            self.loop_bound.on_loop_reentry(pc)
        if not obs.is_striding:
            return False
        if obs.in_waiting_range:
            self.stats.waiting_skips += 1

        if self.in_prm:
            if pc == self.hslr_pc:
                # One full iteration of the indirect chain: terminate, then
                # maybe immediately restart outside the prefetched range.
                self.detector.clear_seen_except(pc)
                self._terminate("hslr", issue_time)
                if not obs.in_waiting_range and self._may_trigger():
                    return self._enter_prm(entry, inst, result.address,
                                           issue_time)
                return False
            if entry.seen:
                # Nested inner loop (Fig 9 top): abort and retarget.
                self._terminate("retarget", issue_time)
                self.stats.retargets += 1
                self.hslr_pc = pc
                self.detector.clear_seen_except(pc)
                entry.seen = True
                if not obs.in_waiting_range and self._may_trigger():
                    return self._enter_prm(entry, inst, result.address,
                                           issue_time)
                return False
            # Unrolled parallel chain (Fig 9 middle): vectorize alongside.
            entry.seen = True
            if (not obs.in_waiting_range and self._may_trigger()
                    and not self._generation_stopped):
                self.stats.unrolled_chains += 1
                self._generate_stride_svis(entry, inst, result.address,
                                           issue_time,
                                           shared_mask=True)
                return True
            return False

        # Not in PRM (normal execution or waiting mode).
        if self.hslr_pc is None or pc == self.hslr_pc:
            self.detector.clear_seen_except(pc)
            if not obs.in_waiting_range and self._may_trigger():
                self.hslr_pc = pc
                return self._enter_prm(entry, inst, result.address, issue_time)
            return False
        if entry.seen:
            # Independent loop seen twice: retarget (Fig 9 bottom).
            self.stats.retargets += 1
            self.hslr_pc = pc
            self.detector.clear_seen_except(pc)
            entry.seen = True
            if not obs.in_waiting_range and self._may_trigger():
                return self._enter_prm(entry, inst, result.address, issue_time)
            return False
        if not obs.in_waiting_range:
            entry.seen = True
        return False

    def _may_trigger(self) -> bool:
        if not self.monitor.allow_trigger():
            self.stats.rounds_blocked_by_monitor += 1
            return False
        return True

    # -- PRM entry and SVI generation ----------------------------------------------

    def _enter_prm(self, entry: StrideEntry, inst, addr: int,
                   issue_time: float) -> bool:
        cfg = self.config
        length = self.loop_bound.decide_length(cfg.policy, entry,
                                               self.core.regs.read,
                                               cfg.vector_length)
        if length <= 0:
            self.stats.rounds_skipped_zero_length += 1
            return False
        self.in_prm = True
        self._prm_instructions = 0
        self._prm_enter_time = issue_time
        self._lil_offset = 0
        self._generation_stopped = False
        self.mask = [True] * length + [False] * (cfg.vector_length - length)
        self.stats.prm_rounds += 1
        if self.oracle is not None:
            self.oracle.on_round_start(entry.pc)
        if self._p_enter.enabled:
            self._p_enter.emit(pc=entry.pc, time=issue_time, length=length,
                               stride=entry.stride, addr=addr)
        if cfg.register_copy_cost_cycles > 0:
            self.core.delay_frontend(issue_time + cfg.register_copy_cost_cycles)
        self._generate_stride_svis(entry, inst, addr, issue_time,
                                   shared_mask=False, length=length)
        return True

    def _generate_stride_svis(self, entry: StrideEntry, inst, addr: int,
                              issue_time: float, *, shared_mask: bool,
                              length: int | None = None) -> None:
        """Issue N' future copies of a striding load (Section IV-A1/A4)."""
        cfg = self.config
        if length is None:
            length = self.loop_bound.decide_length(cfg.policy, entry,
                                                   self.core.regs.read,
                                                   cfg.vector_length)
            if length <= 0:
                self.stats.rounds_skipped_zero_length += 1
                return
        oracle = self.oracle
        if oracle is not None:
            oracle.observe_stride_round(entry.pc, entry.stride)
            if shared_mask:
                oracle.on_round_join(entry.pc)
        srf_id = None
        if inst.rd:             # x0 is never tainted: lanes only prefetch
            srf_id = self.srf.allocate(inst.rd, self.taint)
            if srf_id is None:
                # SRF exhausted: the destination is part of the chain but
                # its vector cannot be materialised (same contract as
                # _write_dest_lanes).
                self.taint.taint_unmapped(inst.rd)
                return
            self.taint.map(inst.rd, srf_id, self._prm_instructions)
        stride = entry.stride
        hierarchy = self.core.hierarchy
        memory = self.core.memory
        slot = issue_time
        last_prefetched = addr
        for lane in range(length):
            if shared_mask and not self.mask[lane]:
                continue
            if lane % cfg.scalars_per_unit == 0:
                slot = self._svi_slot(issue_time)
            self.stats.svi_lanes += 1
            self.stats.svi_load_lanes += 1
            target = wrap64(addr + (lane + 1) * stride)
            if oracle is not None:
                oracle.observe_svi(entry.pc, target, is_store=False)
            completion = hierarchy.prefetch(target, slot, "svr",
                                            drop_on_full=False)
            try:
                value = memory.read_word(target)
            except IndexError:
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            if srf_id is not None:
                self.srf.write_lane(
                    srf_id, lane, value,
                    completion if completion is not None else slot)
            last_prefetched = target
        if cfg.waiting_mode:
            self.detector.record_prefetch_range(entry, addr, last_prefetched)

    # -- dependent-chain SVIs ------------------------------------------------------

    def _lane_operand(self, reg: int | None, lane: int) -> tuple[int, float, bool]:
        """Value, readiness and validity of *reg* for one lane."""
        if reg is None:
            return 0, 0.0, True
        tentry = self.taint.entry(reg)
        if tentry.tainted and tentry.mapped:
            self.taint.touch_read(reg, self._prm_instructions)
            return self.srf.read_lane(tentry.srf_id, lane)
        return self.core.regs.read(reg), 0.0, True

    def _dependent_logic(self, pc: int, inst, result, issue_time: float) -> None:
        """Generate SVIs for an instruction reading tainted registers."""
        opclass = inst.opclass
        tainted_srcs = [r for r in inst.srcs
                        if self.taint.is_tainted(r)]
        if tainted_srcs and self.oracle is not None:
            self.oracle.observe_dependent(pc)
        vectorizable = bool(tainted_srcs) and all(
            self.taint.is_vectorizable(r) for r in tainted_srcs)

        if inst.is_branch:
            if vectorizable:
                self._mask_divergent_lanes(pc, inst, result, issue_time)
            return

        if not tainted_srcs:
            # Overwriting a mapped register from outside the chain frees it.
            if inst.rd is not None and self.taint.is_tainted(inst.rd):
                freed = self.taint.untaint(inst.rd)
                if freed is not None:
                    self.srf.release(freed)
            return

        # LIL cutoff (Section IV-A4): once past the learned offset of the
        # last indirect load, stop generating SVIs — trailing compute after
        # the final dependent load contributes nothing to prefetching.
        self._check_lil_cutoff()
        if self._generation_stopped or not vectorizable:
            # The chain continues logically but cannot be vectorized (LIL
            # cutoff, or a tainted source lost its SRF mapping).  Taint
            # still propagates — and a tainted load past the cutoff means
            # we reached an *alternative* LIL, draining its confidence
            # (footnote 2 of the paper).
            if inst.is_load and self._generation_stopped:
                entry = (self.detector.get(self.hslr_pc)
                         if self.hslr_pc is not None else None)
                if entry is not None:
                    entry.lil_confidence = max(0, entry.lil_confidence - 1)
                self._lil_offset = self._prm_instructions
            if inst.rd:         # x0 writes are dropped, never tainted
                self.taint.taint_unmapped(inst.rd)
            return
        if inst.is_load:
            self._generate_dependent_load(pc, inst, issue_time)
            self._lil_offset = self._prm_instructions
        elif inst.is_store:
            self._generate_dependent_store(pc, inst, issue_time)
        elif opclass in (OpClass.ALU, OpClass.FP, OpClass.CMP):
            self._generate_dependent_alu(inst, issue_time)

    def _check_lil_cutoff(self) -> None:
        """Stop generating past the learned Last Indirect Load offset."""
        if self.hslr_pc is None:
            return
        entry = self.detector.get(self.hslr_pc)
        if (entry is not None and entry.lil_confidence >= 2
                and self._prm_instructions > entry.lil_offset):
            self._generation_stopped = True

    def _active_lanes(self) -> list[int]:
        return list(compress(range(len(self.mask)), self.mask))

    def _mask_divergent_lanes(self, pc: int, inst, result,
                              issue_time: float) -> None:
        """Section IV-B1: mask lanes whose branch outcome diverges."""
        cfg = self.config
        for count, lane in enumerate(self._active_lanes()):
            if count % cfg.scalars_per_unit == 0:
                self._svi_slot(issue_time)
            self.stats.svi_lanes += 1
            value, _, valid = self._lane_operand(inst.rs1, lane)
            if not valid:
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            lane_taken = inst.branch_taken(value)
            if lane_taken != result.taken:
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                if self.oracle is not None:
                    self.oracle.observe_mask(pc)

    def _generate_dependent_load(self, pc: int, inst,
                                 issue_time: float) -> None:
        cfg = self.config
        hierarchy = self.core.hierarchy
        memory = self.core.memory
        oracle = self.oracle
        lanes = self._active_lanes()
        values: list[tuple[int, int, float]] = []   # (lane, value, ready)
        slot = issue_time
        for count, lane in enumerate(lanes):
            if count % cfg.scalars_per_unit == 0:
                slot = self._svi_slot(issue_time)
            self.stats.svi_lanes += 1
            self.stats.svi_load_lanes += 1
            base, src_ready, valid = self._lane_operand(inst.rs1, lane)
            if not valid:
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            target = wrap64(base + inst.imm)
            if oracle is not None:
                oracle.observe_svi(pc, target, is_store=False)
            start = max(slot, src_ready)
            completion = hierarchy.prefetch(target, start, "svr",
                                            drop_on_full=False)
            try:
                value = memory.read_word(target)
            except IndexError:
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            values.append((lane, value,
                           completion if completion is not None else start))
        self._write_dest_lanes(inst.rd, values)

    def _generate_dependent_store(self, pc: int, inst,
                                  issue_time: float) -> None:
        """Transient stores only prefetch their target lines (write-allocate);
        they must never modify memory."""
        if not self.taint.is_vectorizable(inst.rs1):
            return
        cfg = self.config
        hierarchy = self.core.hierarchy
        oracle = self.oracle
        slot = issue_time
        for count, lane in enumerate(self._active_lanes()):
            if count % cfg.scalars_per_unit == 0:
                slot = self._svi_slot(issue_time)
            self.stats.svi_lanes += 1
            base, src_ready, valid = self._lane_operand(inst.rs1, lane)
            if not valid:
                # A dead source lane kills the lane, exactly as in the
                # load/ALU paths — it must not keep issuing SVIs.
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            target = wrap64(base + inst.imm)
            if oracle is not None:
                oracle.observe_svi(pc, target, is_store=True)
            hierarchy.prefetch(target, max(slot, src_ready), "svr",
                               drop_on_full=False)

    def _generate_dependent_alu(self, inst, issue_time: float) -> None:
        cfg = self.config
        lanes = self._active_lanes()
        values: list[tuple[int, int, float]] = []
        slot = issue_time
        compute = alu_fn(inst)     # hoisted out of the per-lane loop
        imm = inst.imm
        for count, lane in enumerate(lanes):
            if count % cfg.scalars_per_unit == 0:
                slot = self._svi_slot(issue_time)
            self.stats.svi_lanes += 1
            a, ready_a, valid_a = self._lane_operand(inst.rs1, lane)
            b, ready_b, valid_b = (self._lane_operand(inst.rs2, lane)
                                   if inst.rs2 is not None else (0, 0.0, True))
            if not (valid_a and valid_b):
                self.mask[lane] = False
                self.stats.masked_lanes += 1
                continue
            value = compute(a, b, imm)
            ready = max(slot, ready_a, ready_b) + 1.0
            values.append((lane, value, ready))
        self._write_dest_lanes(inst.rd, values)

    def _write_dest_lanes(self, rd: int | None,
                          values: list[tuple[int, int, float]]) -> None:
        if not rd:
            # No destination, or x0: the register file drops the write,
            # so x0 is never tainted and takes no SRF entry.
            return
        srf_id = self.srf.allocate(rd, self.taint)
        if srf_id is None:
            # DVR recycling policy exhausted the SRF: dest stays tainted but
            # unmapped, so downstream consumers cannot be vectorized.
            self.taint.taint_unmapped(rd)
            return
        self.taint.map(rd, srf_id, self._prm_instructions)
        for lane, value, ready in values:
            self.srf.write_lane(srf_id, lane, value, ready)

    # -- termination -------------------------------------------------------------

    def _terminate(self, cause: str, time: float | None = None) -> None:
        if not self.in_prm:
            return
        if cause == "hslr" and self.hslr_pc is not None:
            entry = self.detector.get(self.hslr_pc)
            if entry is not None:
                self.detector.record_lil(entry, self._lil_offset)
        self.taint.clear()
        self.srf.release_all()
        self.mask = [False] * self.config.vector_length
        self.in_prm = False
        if self.oracle is not None:
            self.oracle.on_round_end()
        self._generation_stopped = False
        self.stats.terminations[cause] += 1
        if self._p_exit.enabled:
            if time is None:
                time = self.core.now() if self.core is not None \
                    else self._prm_enter_time
            self._p_exit.emit(cause=cause, time=time,
                              duration=max(0.0, time - self._prm_enter_time),
                              instructions=self._prm_instructions,
                              pc=self.hslr_pc)

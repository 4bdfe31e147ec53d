"""3-wide out-of-order core (Table III: ROB 32, LSQ 16, RS 32).

A one-pass dataflow timing model: instructions are processed in program
order, but each one's execution start is constrained only by operand
readiness, dispatch bandwidth and window occupancy — so independent loads
overlap (MLP) while dependent chains serialise, exactly the contrast with
the in-order core that Figs 3 and 11 rest on.

Modelled constraints
--------------------
* dispatch: ``width`` per cycle, blocked when the ROB (32) is full, i.e.
  until instruction ``i - 32`` commits;
* memory ops additionally wait for a free LSQ (16) slot;
* execution: starts at max(dispatch, source-ready); loads go through the
  shared memory hierarchy (MSHRs, bandwidth, TLB);
* store-to-load forwarding: a load that hits a prior in-window store to the
  same word receives the store's data directly (Table III note);
* in-order commit at ``width`` per cycle; a mispredicted branch redirects
  fetch when it resolves, plus the 10-cycle penalty.
"""

from __future__ import annotations

from collections import deque

from repro.branch.predictor import HybridBranchPredictor
from repro.cores.base import (
    LEVEL_TO_REASON,
    CoreConfig,
    CoreStats,
    IssueSlots,
    StallReason,
    exec_latencies,
    run_window,
)
# ``execute`` is not called here: the step below inlines the committed
# semantics.  The name stays bound because the traced benchmark
# (perfbench/ledger.py) patches ``execute`` on this module by name.
from repro.isa.executor import _ALU_BY_INDEX, execute  # noqa: F401
from repro.isa.instructions import OpClass, Opcode
from repro.isa.registers import NUM_REGS, RegisterFile
from repro.obs.probes import default_bus

_MASK64 = (1 << 64) - 1
_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
_JUMP, _HALT, _FP = OpClass.JUMP, OpClass.HALT, OpClass.FP
_COMPUTE = (OpClass.ALU, OpClass.CMP, OpClass.FP)
_BEQZ = Opcode.BEQZ
_OTHER, _BRANCH_STALL = StallReason.OTHER, StallReason.BRANCH


class OutOfOrderCore:
    """Dataflow out-of-order timing model."""

    kind = "ooo"

    def __init__(self, program, memory, hierarchy,
                 config: CoreConfig | None = None, vr=None,
                 bus=None) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.bus = bus if bus is not None else default_bus()
        self._p_commit = self.bus.probe("core.commit")
        self._p_window = self.bus.probe("core.window_stall")
        # Optional Vector-Runahead unit (repro.svr.vr), triggered on
        # full-window stalls.
        self.vr = vr
        if vr is not None:
            vr.attach(self)
        self.config = config or CoreConfig()
        self.regs = RegisterFile()
        self.predictor = HybridBranchPredictor(
            misprediction_penalty=self.config.mispredict_penalty)
        self._dispatch_slots = IssueSlots(self.config.width)
        self._commit_slots = IssueSlots(self.config.width)
        self.pc = 0
        self.halted = False
        self.stats = CoreStats()
        self.lifetime_instructions = 0   # across windows, for the watchdog
        # Decoded once: the step indexes these instead of calling through
        # Program, RegisterFile and the config on every instruction.
        self._insts = program.instructions
        self._length = len(self._insts)
        self._latency = exec_latencies(program, self.config)
        self._regs = self.regs.values
        self._ready = [0.0] * NUM_REGS
        # CPI-stack bucket a commit stall behind each register's value is
        # charged to.
        self._producer = [_OTHER] * NUM_REGS
        self._rob: deque[float] = deque()      # commit times, oldest first
        self._lsq: deque[float] = deque()      # commit times of memory ops
        self._frontend_ready = 0.0
        self._commit_tail = 0.0
        self._index = 0
        # word address -> (instruction index, data-ready time) for forwarding
        self._store_window: dict[int, tuple[int, float]] = {}

    def now(self) -> float:
        return self._commit_tail

    def reset_stats(self) -> None:
        start = self._commit_tail
        self.stats = CoreStats(start_cycle=start, end_cycle=start)

    def step(self) -> bool:
        """Dispatch, execute and commit one instruction; returns False once
        halted.

        One dispatch on the opclass both executes the instruction (the
        semantics of :func:`repro.isa.executor.execute`, inlined) and times
        it.
        """
        pc = self.pc
        if self.halted or pc >= self._length:
            self.halted = True
            return False
        inst = self._insts[pc]
        cfg = self.config
        stats = self.stats
        index = self._index
        dispatch_slots = self._dispatch_slots

        dispatch_earliest = self._frontend_ready
        if dispatch_slots.cycle > dispatch_earliest:
            dispatch_earliest = float(dispatch_slots.cycle)
        rob = self._rob
        if len(rob) >= cfg.rob_entries:
            release = rob.popleft()
            if release > dispatch_earliest:
                # Full-window stall: the VR trigger condition.
                if self._p_window.enabled:
                    self._p_window.emit(pc=pc, time=dispatch_earliest,
                                        cycles=release - dispatch_earliest)
                if self.vr is not None:
                    self.vr.on_window_stall(pc, dispatch_earliest,
                                            release - dispatch_earliest,
                                            index)
                dispatch_earliest = release
        is_mem = inst.is_mem
        if is_mem and len(self._lsq) >= cfg.lsq_entries:
            release = self._lsq.popleft()
            if release > dispatch_earliest:
                dispatch_earliest = release
        dispatch = dispatch_slots.allocate(dispatch_earliest)

        # Operand readiness (register dataflow).
        exec_start = dispatch
        src_reason = _OTHER
        ready_table = self._ready
        for reg in inst.srcs:
            ready = ready_table[reg]
            if ready > exec_start:
                exec_start = ready
                src_reason = self._producer[reg]

        regs = self._regs
        opclass = inst.opclass
        completion = exec_start + 1.0
        next_pc = pc + 1
        # What a commit stall behind this instruction is charged to.
        reason = src_reason
        if opclass in _COMPUTE:
            rs1, rs2 = inst.rs1, inst.rs2
            value = _ALU_BY_INDEX[inst.opindex](
                regs[rs1] if rs1 is not None else 0,
                regs[rs2] if rs2 is not None else 0, inst.imm)
            completion = exec_start + self._latency[pc]
            rd = inst.rd
            if rd:
                regs[rd] = value
            ready_table[rd] = completion
            self._producer[rd] = src_reason
            if opclass is _FP:
                stats.fp_ops += 1
            else:
                stats.alu_ops += 1
        elif opclass is _LOAD:
            address = (regs[inst.rs1] + inst.imm) & _MASK64
            value = self.memory.read_word(address)
            forward = self._store_window.get(address >> 3)
            if forward is not None and forward[0] >= index - cfg.rob_entries:
                # Forwarded from an in-window store: no memory round trip.
                data_ready = forward[1]
                completion = (data_ready if data_ready > exec_start
                              else exec_start) + 1.0
                level = "alu"
                reason = _OTHER
            else:
                outcome = self.hierarchy.load(address, exec_start, pc)
                completion = outcome.completion
                level = outcome.level
                reason = LEVEL_TO_REASON.get(level, _OTHER)
            rd = inst.rd
            if rd:
                regs[rd] = value
            ready_table[rd] = completion
            self._producer[rd] = reason
            stats.loads += 1
        elif opclass is _BRANCH:
            cond = regs[inst.rs1]
            taken = (cond == 0) if inst.op is _BEQZ else (cond != 0)
            if taken:
                next_pc = inst.target
            if not self.predictor.predict_and_update(pc, taken):
                stats.mispredicts += 1
                penalty = cfg.mispredict_penalty
                if penalty > 0:
                    stats.stall_cycles[_BRANCH_STALL] += penalty
                self._frontend_ready = completion + penalty
            stats.branches += 1
        elif opclass is _STORE:
            address = (regs[inst.rs1] + inst.imm) & _MASK64
            self.memory.write_word(address, regs[inst.rs2])
            self.hierarchy.store(address, exec_start, pc)
            # Store buffered; the core moves on.
            self._store_window[address >> 3] = (index, exec_start)
            stats.stores += 1
        elif opclass is _JUMP:
            next_pc = inst.target
        elif opclass is _HALT:
            next_pc = pc
            self.halted = True
            stats.halted = True
        # NOP needs no handling.

        # In-order commit; attribute commit stalls to the producing level.
        commit_earliest = self._commit_tail
        if completion > commit_earliest:
            stats.stall_cycles[reason] += completion - commit_earliest
            commit_earliest = completion
        commit = self._commit_slots.allocate(commit_earliest)
        self._commit_tail = commit
        rob.append(commit)
        if is_mem:
            self._lsq.append(commit)
        if len(self._store_window) > 4 * cfg.rob_entries:
            cutoff = index - cfg.rob_entries
            self._store_window = {w: v for w, v in self._store_window.items()
                                  if v[0] >= cutoff}

        stats.instructions += 1
        self._index = index + 1
        if commit + 1.0 > stats.end_cycle:
            stats.end_cycle = commit + 1.0
        if self._p_commit.enabled:
            self._p_commit.emit(
                pc=pc, op=inst.op.value, opclass=opclass.name,
                issue=exec_start, completion=completion,
                level=level if opclass is _LOAD else None)

        self.pc = next_pc
        return not self.halted

    def run(self, max_instructions: int, progress=None) -> CoreStats:
        """Run until HALT or *max_instructions* committed in this window
        (see :func:`repro.cores.base.run_window`)."""
        return run_window(self, max_instructions, progress)

"""3-wide stall-on-use in-order core (ARM Cortex-A510-like, Table III).

The core issues strictly in program order, up to ``width`` instructions per
cycle.  A load does not stall the pipeline; the first *use* of a register
whose producing load is outstanding does (stall-on-use), which is the
property SVR piggybacks on (Section III of the paper).  A 32-entry
scoreboard bounds the in-flight window.

SVR attaches through the ``svr`` hook object (see
:class:`repro.svr.unit.ScalarVectorUnit`): the core calls
``svr.after_issue(...)`` for every issued instruction and exposes
:meth:`issue_transient` so SVIs consume real issue slots in lockstep.
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
from repro.isa.executor import _ALU_BY_INDEX, ExecResult, execute  # noqa: F401
from repro.isa.instructions import OpClass, Opcode
from repro.isa.registers import NUM_REGS, RegisterFile
from repro.obs.probes import default_bus

_MASK64 = (1 << 64) - 1
_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
_JUMP, _HALT, _FP = OpClass.JUMP, OpClass.HALT, OpClass.FP
_COMPUTE = (OpClass.ALU, OpClass.CMP, OpClass.FP)
_BEQZ = Opcode.BEQZ
_OTHER, _BRANCH_STALL = StallReason.OTHER, StallReason.BRANCH


class InOrderCore:
    """Stall-on-use in-order timing model."""

    kind = "inorder"

    def __init__(self, program, memory, hierarchy, config: CoreConfig | None = None,
                 svr=None, bus=None) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.bus = bus if bus is not None else default_bus()
        self._p_commit = self.bus.probe("core.commit")
        self.config = config or CoreConfig()
        self.regs = RegisterFile()
        self.predictor = HybridBranchPredictor(
            misprediction_penalty=self.config.mispredict_penalty)
        self.slots = IssueSlots(self.config.width)
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
        # CPI-stack bucket a stall on each register's value is charged to.
        self._producer = [_OTHER] * NUM_REGS
        self._inflight: deque[float] = deque()
        self._frontend_ready = 0.0
        self.svr = svr
        if svr is not None:
            svr.attach(self)

    # -- helpers used by SVR ----------------------------------------------------

    def issue_transient(self, earliest: float) -> float:
        """Reserve an issue slot for a transient (SVI) operation."""
        time = self.slots.allocate(earliest)
        if time + 1.0 > self.stats.end_cycle:
            self.stats.end_cycle = time + 1.0
        return time

    def now(self) -> float:
        return float(self.slots.cycle)

    def delay_frontend(self, until: float) -> None:
        """Hold fetch until *until* (models the register-copy cost ablation
        of Section VI-D: copying scalar state before a runahead round)."""
        if until > self._frontend_ready:
            self._frontend_ready = until

    def reset_stats(self) -> None:
        """Start a fresh measurement window without disturbing state."""
        start = self.now()
        self.stats = CoreStats(start_cycle=start, end_cycle=start)

    # -- main loop ------------------------------------------------------------

    def step(self) -> bool:
        """Issue and execute one instruction; returns False once halted.

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
        stalls = stats.stall_cycles
        slots = self.slots

        # Baseline for stall accounting: when this instruction could issue
        # absent hazards (frontend redirect or issue-bandwidth limit).
        earliest = self._frontend_ready
        if slots.cycle > earliest:
            earliest = float(slots.cycle)
        # Scoreboard: instruction i waits for completion of i - entries.
        inflight = self._inflight
        if len(inflight) >= cfg.scoreboard_entries:
            release = inflight.popleft()
            if release > earliest:
                stalls[_OTHER] += release - earliest
                earliest = release
        # Stall-on-use: wait for source operands.
        src_ready = earliest
        src_reason = _OTHER
        ready_table = self._ready
        for reg in inst.srcs:
            ready = ready_table[reg]
            if ready > src_ready:
                src_ready = ready
                src_reason = self._producer[reg]
        if src_ready > earliest:
            stalls[src_reason] += src_ready - earliest
            earliest = src_ready

        issue = slots.allocate(earliest)

        regs = self._regs
        opclass = inst.opclass
        completion = issue + 1.0
        next_pc = pc + 1
        outcome = None
        # The ExecResult fields an attached SVR unit reads.
        value = address = taken = None
        src_a = src_b = 0
        if opclass in _COMPUTE:
            rs1, rs2 = inst.rs1, inst.rs2
            if rs1 is not None:
                src_a = regs[rs1]
            if rs2 is not None:
                src_b = regs[rs2]
            value = _ALU_BY_INDEX[inst.opindex](src_a, src_b, inst.imm)
            completion = issue + self._latency[pc]
            rd = inst.rd
            if rd:
                regs[rd] = value
            ready_table[rd] = completion
            self._producer[rd] = _OTHER
            if opclass is _FP:
                stats.fp_ops += 1
            else:
                stats.alu_ops += 1
        elif opclass is _LOAD:
            address = (regs[inst.rs1] + inst.imm) & _MASK64
            value = self.memory.read_word(address)
            outcome = self.hierarchy.load(address, issue, pc)
            completion = outcome.completion
            rd = inst.rd
            if rd:
                regs[rd] = value
            ready_table[rd] = completion
            self._producer[rd] = LEVEL_TO_REASON.get(outcome.level, _OTHER)
            stats.loads += 1
        elif opclass is _BRANCH:
            src_a = regs[inst.rs1]
            taken = (src_a == 0) if inst.op is _BEQZ else (src_a != 0)
            if taken:
                next_pc = inst.target
            if not self.predictor.predict_and_update(pc, taken):
                stats.mispredicts += 1
                penalty = cfg.mispredict_penalty
                if penalty > 0:
                    stalls[_BRANCH_STALL] += penalty
                self._frontend_ready = issue + 1.0 + penalty
            stats.branches += 1
        elif opclass is _STORE:
            address = (regs[inst.rs1] + inst.imm) & _MASK64
            value = regs[inst.rs2]
            self.memory.write_word(address, value)
            outcome = self.hierarchy.store(address, issue, pc)
            completion = outcome.completion
            stats.stores += 1
        elif opclass is _JUMP:
            taken = True
            next_pc = inst.target
        elif opclass is _HALT:
            next_pc = pc
            self.halted = True
            stats.halted = True
        # NOP needs no handling.

        inflight.append(completion)
        stats.instructions += 1
        if completion > stats.end_cycle:
            stats.end_cycle = completion
        if issue + 1.0 > stats.end_cycle:
            stats.end_cycle = issue + 1.0

        if self.svr is not None and not self.halted:
            self.svr.after_issue(
                pc, inst, issue,
                ExecResult(value=value, address=address, taken=taken,
                           next_pc=next_pc, src_a=src_a, src_b=src_b),
                outcome)
        if self._p_commit.enabled:
            self._p_commit.emit(
                pc=pc, op=inst.op.value, opclass=opclass.name,
                issue=issue, completion=completion,
                level=outcome.level if outcome is not None else None)

        self.pc = next_pc
        return not self.halted

    def run(self, max_instructions: int, progress=None) -> CoreStats:
        """Run until HALT or *max_instructions* committed in this window.

        Raises :class:`~repro.cores.base.SimulationError` if the watchdog
        fence (``CoreConfig.watchdog_max_cycles`` / ``_max_instructions``)
        is exceeded.  Pass a :class:`repro.obs.ProgressReporter` as
        *progress* to emit in-flight frames (see
        :func:`repro.cores.base.run_window`).
        """
        return run_window(self, max_instructions, progress)


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
    CoreConfig,
    CoreStats,
    IssueSlots,
    StallReason,
    check_watchdog,
    stall_reason_for_level,
)
from repro.isa.executor import execute
from repro.isa.instructions import OpClass
from repro.isa.registers import NUM_REGS, RegisterFile
from repro.obs.probes import default_bus


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
        self._ready = [0.0] * NUM_REGS
        self._producer = ["alu"] * NUM_REGS
        self._inflight: deque[float] = deque()
        self._frontend_ready = 0.0
        self.svr = svr
        if svr is not None:
            svr.attach(self)
        # Optional per-instruction observer: called as
        # trace(pc, inst, issue_time, completion, outcome) after execution.
        self.trace = None

    # -- helpers used by SVR ----------------------------------------------------

    def issue_transient(self, earliest: float) -> float:
        """Reserve an issue slot for a transient (SVI) operation."""
        time = self.slots.allocate(earliest)
        if time + 1.0 > self.stats.end_cycle:
            self.stats.end_cycle = time + 1.0
        return time

    def now(self) -> float:
        return float(self.slots.current_cycle)

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

    def _exec_latency(self, inst) -> float:
        cfg = self.config
        if inst.is_multiply:
            return cfg.mul_latency
        if inst.opclass is OpClass.FP:
            return cfg.fp_latency
        return cfg.alu_latency

    def step(self) -> bool:
        """Issue and execute one instruction; returns False once halted."""
        if self.halted or self.pc >= len(self.program):
            self.halted = True
            return False
        inst = self.program[self.pc]
        cfg = self.config
        stats = self.stats

        # Baseline for stall accounting: when this instruction could issue
        # absent hazards (frontend redirect or issue-bandwidth limit).
        earliest = max(self._frontend_ready, float(self.slots.current_cycle))
        # Scoreboard: instruction i waits for completion of i - entries.
        if len(self._inflight) >= cfg.scoreboard_entries:
            release = self._inflight.popleft()
            if release > earliest:
                stats.add_stall(StallReason.OTHER, release - earliest)
                earliest = release
        # Stall-on-use: wait for source operands.
        src_ready = earliest
        src_level = None
        ready_table = self._ready
        for reg in inst.srcs:
            ready = ready_table[reg]
            if ready > src_ready:
                src_ready = ready
                src_level = self._producer[reg]
        if src_ready > earliest:
            stats.add_stall(stall_reason_for_level(src_level or "alu"),
                            src_ready - earliest)
            earliest = src_ready

        issue = self.slots.allocate(earliest)
        result = execute(inst, self.pc, self.regs.read, self.memory)

        completion = issue + 1.0
        outcome = None
        opclass = inst.opclass
        if opclass is OpClass.LOAD:
            outcome = self.hierarchy.load(result.address, issue, self.pc)
            completion = outcome.completion
            self.regs.write(inst.rd, result.value)
            self._ready[inst.rd] = completion
            self._producer[inst.rd] = outcome.level
            stats.loads += 1
        elif opclass is OpClass.STORE:
            outcome = self.hierarchy.store(result.address, issue, self.pc)
            completion = outcome.completion
            stats.stores += 1
        elif opclass is OpClass.BRANCH:
            correct = self.predictor.predict_and_update(self.pc, result.taken)
            if not correct:
                stats.mispredicts += 1
                stats.add_stall(StallReason.BRANCH, cfg.mispredict_penalty)
                self._frontend_ready = issue + 1.0 + cfg.mispredict_penalty
            stats.branches += 1
        elif opclass is OpClass.HALT:
            self.halted = True
            stats.halted = True
        elif opclass in (OpClass.ALU, OpClass.FP, OpClass.CMP):
            latency = self._exec_latency(inst)
            completion = issue + latency
            self.regs.write(inst.rd, result.value)
            self._ready[inst.rd] = completion
            self._producer[inst.rd] = "alu"
            if opclass is OpClass.FP:
                stats.fp_ops += 1
            else:
                stats.alu_ops += 1
        # JUMP / NOP need no special handling beyond control flow.

        self._inflight.append(completion)
        stats.instructions += 1
        if completion > stats.end_cycle:
            stats.end_cycle = completion
        if issue + 1.0 > stats.end_cycle:
            stats.end_cycle = issue + 1.0

        if self.svr is not None and not self.halted:
            self.svr.after_issue(self.pc, inst, issue, result, outcome)
        if self._p_commit.enabled:
            self._p_commit.emit(
                pc=self.pc, op=inst.op.value, opclass=opclass.name,
                issue=issue, completion=completion,
                level=outcome.level if outcome is not None else None)
        if self.trace is not None:
            self.trace(self.pc, inst, issue, completion, outcome)

        self.pc = result.next_pc
        return not self.halted

    def run(self, max_instructions: int, progress=None) -> CoreStats:
        """Run until HALT or *max_instructions* committed in this window.

        Raises :class:`~repro.cores.base.SimulationError` if the watchdog
        fence (``CoreConfig.watchdog_max_cycles`` / ``_max_instructions``)
        is exceeded.  Pass a :class:`repro.obs.ProgressReporter` as
        *progress* to emit in-flight frames; the default ``None`` path is
        the original loop, untouched.
        """
        executed = 0
        cfg = self.config
        fenced = (cfg.watchdog_max_cycles is not None
                  or cfg.watchdog_max_instructions is not None)
        if progress is not None:
            countdown = progress.interval
            while executed < max_instructions and self.step():
                executed += 1
                self.lifetime_instructions += 1
                if fenced:
                    check_watchdog(self)
                countdown -= 1
                if countdown <= 0:
                    countdown = progress.interval
                    progress.sample(self)
            return self.stats
        while executed < max_instructions and self.step():
            executed += 1
            self.lifetime_instructions += 1
            if fenced:
                check_watchdog(self)
        return self.stats

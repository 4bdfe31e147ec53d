"""Shared core-model machinery: configuration, stats, issue-slot tracking.

Both cores are *event-driven latency models* (DESIGN.md): simulated time is
a float cycle count, instructions are processed in program order, and every
structural resource (issue width, scoreboard/ROB occupancy, MSHRs, DRAM
bandwidth) is a constraint on when an instruction may issue or complete.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.isa.instructions import OpClass


class SimulationError(RuntimeError):
    """A simulator-side guard tripped (watchdog fence, injected hang).

    Carries enough context — cycle, pc, committed instructions, and (once
    the harness enriches it) workload and technique — for
    :class:`repro.exec.RunFailure` to record a useful post-mortem instead
    of a bare traceback.
    """

    def __init__(self, message: str, *, cycle: float | None = None,
                 pc: int | None = None, instructions: int | None = None,
                 workload: str | None = None,
                 technique: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.cycle = cycle
        self.pc = pc
        self.instructions = instructions
        self.workload = workload
        self.technique = technique

    def context(self) -> dict:
        """JSON-ready context fields (Nones elided)."""
        fields = {"cycle": self.cycle, "pc": self.pc,
                  "instructions": self.instructions,
                  "workload": self.workload, "technique": self.technique}
        return {k: v for k, v in fields.items() if v is not None}

    def __str__(self) -> str:
        ctx = self.context()
        if not ctx:
            return self.message
        detail = ", ".join(f"{k}={v}" for k, v in ctx.items())
        return f"{self.message} [{detail}]"


class StallReason(enum.Enum):
    """CPI-stack attribution buckets (Fig 3 / Fig 11)."""

    BASE = "base"
    MEM_L1 = "mem-l1"
    MEM_L2 = "mem-l2"
    MEM_DRAM = "mem-dram"
    BRANCH = "branch"
    OTHER = "other"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality.  It keeps the cores' per-instruction stall
    # updates (``stall_cycles[reason] += cycles``) free of Enum's
    # Python-level ``__hash__``.
    __hash__ = object.__hash__


# CPI-stack bucket of a stall on a value produced at each memory level
# (``AccessOutcome.level``); every other producer stalls as OTHER.
LEVEL_TO_REASON = {
    "l1": StallReason.MEM_L1,
    "l2": StallReason.MEM_L2,
    "dram": StallReason.MEM_DRAM,
}


@dataclass
class CoreConfig:
    """Table III parameters shared by both cores."""

    width: int = 3                   # dispatch/commit width
    frequency_ghz: float = 2.0
    scoreboard_entries: int = 32     # in-order in-flight window
    rob_entries: int = 32            # OoO
    lsq_entries: int = 16            # OoO
    mispredict_penalty: float = 10.0
    alu_latency: float = 1.0
    mul_latency: float = 3.0
    fp_latency: float = 3.0
    # Watchdog fence: hard ceilings on lifetime simulated cycles /
    # committed instructions.  ``None`` disables the fence; the harness
    # runner installs a window-scaled default so a runaway model raises a
    # context-rich SimulationError instead of spinning forever.
    watchdog_max_cycles: float | None = None
    watchdog_max_instructions: int | None = None


@dataclass
class CoreStats:
    """Counters for one measured region of one core."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    alu_ops: int = 0
    fp_ops: int = 0
    mispredicts: int = 0
    halted: bool = False
    start_cycle: float = 0.0
    end_cycle: float = 0.0
    stall_cycles: dict[StallReason, float] = field(
        default_factory=lambda: {r: 0.0 for r in StallReason})

    @property
    def cycles(self) -> float:
        return max(0.0, self.end_cycle - self.start_cycle)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def cpi_stack(self) -> dict[str, float]:
        """CPI contributions per bucket; 'base' is the residual issue CPI."""
        if not self.instructions:
            return {r.value: 0.0 for r in StallReason}
        stack = {r.value: c / self.instructions
                 for r, c in self.stall_cycles.items()}
        attributed = sum(stack.values()) - stack[StallReason.BASE.value]
        stack[StallReason.BASE.value] = max(0.0, self.cpi - attributed)
        return stack


def check_watchdog(core) -> None:
    """Raise :class:`SimulationError` when *core* has blown past its
    configured watchdog fence.  The run loops of both cores compare the
    fence limits inline and call this only once one is exceeded.  Emits a
    ``core.watchdog`` probe event before raising so observability layers
    can count trips."""
    cfg = core.config
    tripped = None
    if (cfg.watchdog_max_cycles is not None
            and core.stats.end_cycle > cfg.watchdog_max_cycles):
        tripped = ("cycles", cfg.watchdog_max_cycles)
    elif (cfg.watchdog_max_instructions is not None
            and core.lifetime_instructions > cfg.watchdog_max_instructions):
        tripped = ("instructions", cfg.watchdog_max_instructions)
    if tripped is None:
        return
    kind, limit = tripped
    core.bus.probe("core.watchdog").emit(
        kind=kind, limit=limit, core=core.kind,
        cycle=core.stats.end_cycle, pc=core.pc,
        instructions=core.lifetime_instructions)
    raise SimulationError(
        f"watchdog fence: simulated {kind} exceeded {limit:g} "
        f"on the {core.kind} core",
        cycle=core.stats.end_cycle, pc=core.pc,
        instructions=core.lifetime_instructions)


def exec_latencies(program, config: CoreConfig) -> list[float]:
    """Per-pc execute latency of *program*'s ALU, FP and CMP ops, decoded
    once per core."""
    return [config.mul_latency if inst.is_multiply
            else config.fp_latency if inst.opclass is OpClass.FP
            else config.alu_latency
            for inst in program.instructions]


def run_window(core, max_instructions: int, progress=None) -> CoreStats:
    """The run loop of both cores: step *core* until HALT or
    *max_instructions* committed in this window, then return its stats.

    The watchdog limits are compared inline; :func:`check_watchdog` is
    called only once one is exceeded, to emit and raise.  With a
    :class:`repro.obs.ProgressReporter` as *progress*, the window runs
    in chunks of its cadence and the reporter samples the core between
    chunks; without one, the window is one chunk.
    """
    cfg = core.config
    max_cycles = cfg.watchdog_max_cycles
    max_lifetime = cfg.watchdog_max_instructions
    if max_cycles is None:
        max_cycles = math.inf
    if max_lifetime is None:
        max_lifetime = math.inf
    chunk = progress.interval if progress is not None else max_instructions
    step = core.step
    executed = 0
    while True:
        stop = min(executed + chunk, max_instructions)
        while executed < stop and step():
            executed += 1
            core.lifetime_instructions += 1
            if (core.stats.end_cycle > max_cycles
                    or core.lifetime_instructions > max_lifetime):
                check_watchdog(core)
        if executed < stop or executed >= max_instructions:
            return core.stats
        progress.sample(core)


class IssueSlots:
    """Tracks issue bandwidth: at most ``width`` issues per integer cycle.

    Allocation requests are monotonic in practice (program order); a request
    earlier than the current issue cycle is pushed forward, which is also
    how SVR's lockstep coupling serialises SVIs behind the real instruction
    that spawned them.
    """

    __slots__ = ("width", "cycle", "_used")

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("issue width must be >= 1")
        self.width = width
        self.cycle = 0       # the integer cycle slots are being handed out in
        self._used = 0

    def allocate(self, earliest: float) -> float:
        """Reserve one slot at or after *earliest*; return the issue time."""
        if earliest < self.cycle:
            earliest = float(self.cycle)
        cycle = math.floor(earliest)
        if cycle > self.cycle:
            self.cycle = cycle
            self._used = 1
            return earliest
        if self._used < self.width:
            self._used += 1
            return earliest
        self.cycle += 1
        self._used = 1
        return float(self.cycle)

    def peek(self, earliest: float) -> float:
        """Issue time :meth:`allocate` would return, without reserving."""
        if earliest < self.cycle:
            earliest = float(self.cycle)
        cycle = math.floor(earliest)
        if cycle > self.cycle or self._used < self.width:
            return earliest
        return float(self.cycle + 1)

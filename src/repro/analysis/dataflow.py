"""Worklist dataflow engine plus the standard analyses over mini-ISA CFGs.

The engine (:func:`solve`) iterates block-level transfer functions over a
lattice until fixpoint, in either direction.  Three concrete analyses are
built on it:

* :class:`ReachingDefinitions` — which ``(pc, reg)`` definitions reach each
  program point (may-analysis, union meet);
* :class:`LiveRegisters` — which registers are live at each point
  (backward may-analysis, union meet);
* :class:`DefiniteAssignment` — which registers have definitely been
  written on *every* path from the entry (must-analysis, intersection
  meet); reads outside this set see the architectural zero a fresh
  register file supplies, which is almost always a kernel bug.

Each analysis exposes per-instruction refinement helpers that re-walk the
containing block from the solved boundary value, so clients get
program-point precision without the engine having to store per-pc state.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, TypeVar

from repro.analysis.cfg import CFG, BasicBlock
from repro.isa.instructions import Instruction
from repro.isa.registers import NUM_REGS

T = TypeVar("T")

Def = tuple[int, int]        # (pc, reg)


class DataflowProblem(Generic[T]):
    """A lattice plus transfer function; subclass and hand to :func:`solve`.

    ``direction`` is ``"forward"`` or ``"backward"``.  ``boundary()`` is the
    value at the entry (forward) or at every exit block (backward);
    ``top()`` initialises all other blocks.
    """

    direction: str = "forward"

    def boundary(self) -> T:
        raise NotImplementedError

    def top(self) -> T:
        raise NotImplementedError

    def meet(self, a: T, b: T) -> T:
        raise NotImplementedError

    def transfer(self, block: BasicBlock, value: T) -> T:
        raise NotImplementedError


def solve(cfg: CFG, problem: DataflowProblem[T]) -> dict[int, tuple[T, T]]:
    """Run *problem* to fixpoint; returns ``{block_start: (in, out)}``.

    ``in`` is the value before the block in execution order and ``out`` the
    value after it, for both directions.  Only reachable blocks are solved.
    """
    forward = problem.direction == "forward"
    order = cfg.rpo if forward else list(reversed(cfg.rpo))
    entry_like = ({cfg.entry} if forward else
                  {b for b in cfg.rpo if not cfg.blocks[b].successors})
    value_in: dict[int, T] = {}
    value_out: dict[int, T] = {}
    for block in order:
        value_in[block] = problem.top()
        value_out[block] = problem.top()

    def inputs(block: int) -> Iterable[int]:
        if forward:
            return (p for p in cfg.blocks[block].predecessors
                    if p in value_out)
        return (s for s in cfg.blocks[block].successors if s in value_out)

    changed = True
    while changed:
        changed = False
        for block in order:
            feeds = list(inputs(block))
            if block in entry_like and not feeds:
                before = problem.boundary()
            else:
                before = problem.top()
                first = True
                for feed in feeds:
                    other = value_out[feed]
                    before = other if first else problem.meet(before, other)
                    first = False
                if first:
                    before = problem.boundary()
                elif block in entry_like:
                    before = problem.meet(before, problem.boundary())
            after = problem.transfer(cfg.blocks[block], before)
            if before != value_in[block] or after != value_out[block]:
                value_in[block] = before
                value_out[block] = after
                changed = True
    return {b: (value_in[b], value_out[b]) for b in order}


def _writes(inst: Instruction) -> tuple[int, ...]:
    """Registers *architecturally* written (x0 writes are discarded)."""
    return tuple(r for r in inst.regs_written() if r != 0)


def _reads(inst: Instruction) -> tuple[int, ...]:
    """Registers read, excluding the hard-wired zero register."""
    return tuple(r for r in inst.regs_read() if r != 0)


class ReachingDefinitions:
    """Forward may-analysis over ``(pc, reg)`` definition sites."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        outer = self

        class _Problem(DataflowProblem[frozenset[Def]]):
            direction = "forward"

            def boundary(self) -> frozenset[Def]:
                return frozenset()

            def top(self) -> frozenset[Def]:
                return frozenset()

            def meet(self, a: frozenset[Def],
                     b: frozenset[Def]) -> frozenset[Def]:
                return a | b

            def transfer(self, block: BasicBlock,
                         value: frozenset[Def]) -> frozenset[Def]:
                return outer._walk(block, value, block.end)

        self.solution = solve(cfg, _Problem())

    def _walk(self, block: BasicBlock, value: frozenset[Def],
              stop_pc: int) -> frozenset[Def]:
        defs = set(value)
        for pc in range(block.start, stop_pc):
            inst = self.cfg.program[pc]
            for reg in _writes(inst):
                defs = {d for d in defs if d[1] != reg}
                defs.add((pc, reg))
        return frozenset(defs)

    def reaching(self, pc: int, reg: int) -> frozenset[int]:
        """Definition pcs of *reg* that reach the point just before *pc*."""
        block = self.cfg.block_of(pc)
        if block.start not in self.solution:
            return frozenset()
        block_in, _ = self.solution[block.start]
        defs = self._walk(block, block_in, pc)
        return frozenset(d[0] for d in defs if d[1] == reg)


class LiveRegisters:
    """Backward may-analysis: registers whose value may still be read."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        outer = self

        class _Problem(DataflowProblem[frozenset[int]]):
            direction = "backward"

            def boundary(self) -> frozenset[int]:
                return frozenset()

            def top(self) -> frozenset[int]:
                return frozenset()

            def meet(self, a: frozenset[int],
                     b: frozenset[int]) -> frozenset[int]:
                return a | b

            def transfer(self, block: BasicBlock,
                         value: frozenset[int]) -> frozenset[int]:
                return outer._walk_back(block, value, block.start)

        self.solution = solve(cfg, _Problem())

    def _walk_back(self, block: BasicBlock, value: frozenset[int],
                   stop_pc: int) -> frozenset[int]:
        live = set(value)
        for pc in range(block.end - 1, stop_pc - 1, -1):
            inst = self.cfg.program[pc]
            for reg in _writes(inst):
                live.discard(reg)
            live.update(_reads(inst))
        return frozenset(live)

    def live_out(self, pc: int) -> frozenset[int]:
        """Registers live just after *pc* executes."""
        block = self.cfg.block_of(pc)
        if block.start not in self.solution:
            return frozenset()
        # For a backward problem solution[(in, out)] is (live at block end,
        # live at block start); walk back from the end to just past pc.
        end_live, _ = self.solution[block.start]
        return self._walk_back(block, end_live, pc + 1)


class DefiniteAssignment:
    """Forward must-analysis: registers written on every path so far."""

    ALL = frozenset(range(NUM_REGS))

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        outer = self

        class _Problem(DataflowProblem[frozenset[int]]):
            direction = "forward"

            def boundary(self) -> frozenset[int]:
                return frozenset({0})        # x0 is always defined

            def top(self) -> frozenset[int]:
                return DefiniteAssignment.ALL

            def meet(self, a: frozenset[int],
                     b: frozenset[int]) -> frozenset[int]:
                return a & b

            def transfer(self, block: BasicBlock,
                         value: frozenset[int]) -> frozenset[int]:
                return outer._walk(block, value, block.end)

        self.solution = solve(cfg, _Problem())

    def _walk(self, block: BasicBlock, value: frozenset[int],
              stop_pc: int) -> frozenset[int]:
        assigned = set(value)
        for pc in range(block.start, stop_pc):
            assigned.update(_writes(self.cfg.program[pc]))
        return frozenset(assigned)

    def assigned_before(self, pc: int) -> frozenset[int]:
        block = self.cfg.block_of(pc)
        if block.start not in self.solution:
            return self.ALL
        block_in, _ = self.solution[block.start]
        return self._walk(block, block_in, pc)


def unassigned_reads(cfg: CFG) -> list[tuple[int, int]]:
    """``(pc, reg)`` reads of registers not assigned on every path."""
    analysis = DefiniteAssignment(cfg)
    findings = []
    for start in cfg.rpo:
        block = cfg.blocks[start]
        assigned = set(analysis.solution[start][0])
        for pc in block.pcs:
            inst = cfg.program[pc]
            for reg in _reads(inst):
                if reg not in assigned:
                    findings.append((pc, reg))
            assigned.update(_writes(inst))
    return findings


def dead_definitions(cfg: CFG,
                     keep: Callable[[Instruction], bool] | None = None,
                     ) -> list[tuple[int, int]]:
    """``(pc, reg)`` definitions whose value is never read afterwards.

    *keep* can exempt instruction kinds with side effects beyond the
    register write (loads touch the memory hierarchy, for instance).
    """
    live = LiveRegisters(cfg)
    findings = []
    for start in cfg.rpo:
        for pc in cfg.blocks[start].pcs:
            inst = cfg.program[pc]
            if keep is not None and keep(inst):
                continue
            for reg in _writes(inst):
                if reg not in live.live_out(pc):
                    findings.append((pc, reg))
    return findings


def dead_stores(cfg: CFG) -> list[tuple[int, int, int]]:
    """``(pc, reg, kill_pc)`` definitions overwritten before any read.

    The stronger form of a dead definition: the value is not merely unread
    (which also happens at program exit), it is clobbered by a later write
    to the same register that the definition still reaches.  ``kill_pc`` is
    the earliest such overwriting definition.  Liveness guarantees no path
    reads the value, so attributing the kill through may-reaching
    definitions cannot mislabel a value that is consumed somewhere.
    """
    live = LiveRegisters(cfg)
    reach = ReachingDefinitions(cfg)
    kills: dict[Def, int] = {}
    for start in cfg.rpo:
        for kill_pc in cfg.blocks[start].pcs:
            for reg in _writes(cfg.program[kill_pc]):
                for def_pc in reach.reaching(kill_pc, reg):
                    if def_pc == kill_pc:
                        continue
                    if reg in live.live_out(def_pc):
                        continue
                    key = (def_pc, reg)
                    if key not in kills or kill_pc < kills[key]:
                        kills[key] = kill_pc
    return sorted((pc, reg, kill) for (pc, reg), kill in kills.items())

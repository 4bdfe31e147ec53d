"""Control-flow graph over a :class:`~repro.isa.program.Program`.

PCs are instruction indices, so basic blocks are half-open index ranges.
The CFG carries everything the dataflow and loop analyses need: block
boundaries, successor/predecessor edges, reachability from the entry,
reverse postorder, dominators, and natural loops.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.isa.instructions import Opcode
from repro.isa.program import Program


@dataclass
class BasicBlock:
    """Maximal straight-line run of instructions ``[start, end)``."""

    start: int
    end: int
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)

    @property
    def terminator_pc(self) -> int:
        return self.end - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.start}..{self.end - 1})"


@dataclass
class Loop:
    """A natural loop: header block plus the body reached by its back edges."""

    header: int                      # header block start pc
    body: frozenset[int]             # block start pcs, header included
    back_edges: tuple[int, ...]      # latch block start pcs
    exits: tuple[int, ...] = ()      # blocks outside the loop targeted from it

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Loop(header={self.header}, blocks={len(self.body)})"


class CFG:
    """Basic blocks, edges, dominators and natural loops of one program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.blocks: dict[int, BasicBlock] = {}
        self.entry = 0
        # PCs whose fallthrough leaves the program (lint error E001).
        self.off_end_pcs: list[int] = []
        self._build_blocks()
        self._starts = sorted(self.blocks)
        self.reachable = self._compute_reachable()
        self.rpo = self._reverse_postorder()
        self._rpo_index = {b: i for i, b in enumerate(self.rpo)}
        self.dominators = self._compute_dominators()
        self.loops = self._find_loops()

    # -- construction -----------------------------------------------------

    def _build_blocks(self) -> None:
        program = self.program
        n = len(program)
        if n == 0:
            return
        leaders = {0}
        for pc in range(n):
            inst = program[pc]
            if inst.target is not None:
                leaders.add(inst.target)
            if (inst.is_control or inst.op is Opcode.HALT) and pc + 1 < n:
                leaders.add(pc + 1)
        ordered = sorted(leaders)
        for i, start in enumerate(ordered):
            end = ordered[i + 1] if i + 1 < len(ordered) else n
            self.blocks[start] = BasicBlock(start, end)
        for block in self.blocks.values():
            term = program[block.terminator_pc]
            succs: list[int] = []
            if term.op is Opcode.HALT:
                pass
            elif term.op is Opcode.JMP:
                succs.append(term.target)
            elif term.is_branch:
                if block.end < n:
                    succs.append(block.end)
                else:
                    self.off_end_pcs.append(block.terminator_pc)
                if term.target not in succs:
                    succs.append(term.target)
            else:
                if block.end < n:
                    succs.append(block.end)
                else:
                    self.off_end_pcs.append(block.terminator_pc)
            block.successors = succs
            for succ in succs:
                self.blocks[succ].predecessors.append(block.start)

    def block_of(self, pc: int) -> BasicBlock:
        """The basic block containing *pc*."""
        idx = bisect.bisect_right(self._starts, pc) - 1
        block = self.blocks[self._starts[idx]]
        if not block.start <= pc < block.end:
            raise IndexError(f"pc {pc} outside program")
        return block

    def _compute_reachable(self) -> frozenset[int]:
        if not self.blocks:
            return frozenset()
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in self.blocks[stack.pop()].successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)

    def _reverse_postorder(self) -> list[int]:
        order: list[int] = []
        seen: set[int] = set()

        def visit(start: int) -> None:
            # Iterative DFS with an explicit stack (kernels can be deep).
            stack: list[tuple[int, int]] = [(start, 0)]
            seen.add(start)
            while stack:
                block, i = stack[-1]
                succs = self.blocks[block].successors
                if i < len(succs):
                    stack[-1] = (block, i + 1)
                    succ = succs[i]
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, 0))
                else:
                    stack.pop()
                    order.append(block)

        if self.blocks:
            visit(self.entry)
        order.reverse()
        return order

    @property
    def unreachable_blocks(self) -> list[BasicBlock]:
        return [self.blocks[s] for s in self._starts
                if s not in self.reachable]

    # -- dominators --------------------------------------------------------

    def _compute_dominators(self) -> dict[int, frozenset[int]]:
        """Iterative dominator sets over reverse postorder."""
        if not self.blocks:
            return {}
        all_blocks = frozenset(self.rpo)
        dom: dict[int, frozenset[int]] = {
            b: all_blocks for b in self.rpo}
        dom[self.entry] = frozenset({self.entry})
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block == self.entry:
                    continue
                preds = [p for p in self.blocks[block].predecessors
                         if p in self._rpo_index]
                new = all_blocks
                for pred in preds:
                    new = new & dom[pred]
                new = new | {block}
                if new != dom[block]:
                    dom[block] = new
                    changed = True
        return dom

    def dominates(self, a: int, b: int) -> bool:
        """Whether block *a* dominates block *b* (block start pcs)."""
        return a in self.dominators.get(b, frozenset())

    # -- natural loops -----------------------------------------------------

    def _find_loops(self) -> list[Loop]:
        bodies: dict[int, set[int]] = {}
        latches: dict[int, set[int]] = {}
        for block in self.rpo:
            for succ in self.blocks[block].successors:
                if self.dominates(succ, block):      # back edge block->succ
                    body = bodies.setdefault(succ, {succ})
                    latches.setdefault(succ, set()).add(block)
                    stack = [block]
                    while stack:
                        node = stack.pop()
                        if node in body:
                            continue
                        body.add(node)
                        stack.extend(
                            p for p in self.blocks[node].predecessors
                            if p in self._rpo_index)
        loops = []
        for header, body in bodies.items():
            exits = sorted({succ for b in body
                            for succ in self.blocks[b].successors
                            if succ not in body})
            loops.append(Loop(header, frozenset(body),
                              tuple(sorted(latches[header])), tuple(exits)))
        # Inner loops first so innermost_loop() can take the first match.
        loops.sort(key=lambda lp: (len(lp.body), lp.header))
        return loops

    def innermost_loop(self, pc: int) -> Loop | None:
        """The smallest natural loop whose body contains *pc*."""
        block = self.block_of(pc).start
        for loop in self.loops:
            if block in loop.body:
                return loop
        return None

    def loop_pcs(self, loop: Loop) -> list[int]:
        """All instruction pcs inside *loop*, in ascending order."""
        pcs: list[int] = []
        for start in sorted(loop.body):
            pcs.extend(self.blocks[start].pcs)
        return pcs


def build_cfg(program: Program) -> CFG:
    """Construct the control-flow graph for *program*."""
    return CFG(program)

"""Kernel lint: diagnostics over a program plus the analysis summaries.

:func:`lint_program` runs every static check and bundles the results with
the stride/taint summaries into a :class:`LintReport`.  Diagnostics carry a
severity, a stable code (catalogued in :data:`DIAGNOSTIC_CATALOG`), the
offending pc and a disassembled excerpt, so they render equally well as CLI
text, JSON for CI, or pytest assertion messages.

Checks
------
``E001``  control flow can run off the end of the program (no ``halt``)
``E002``  assembly source failed to parse (CLI ``.s`` targets only; the
          diagnostic's ``pc`` field carries the source line number)
``W101``  register read before any definite assignment (reads the
          architectural zero a fresh register file supplies)
``W102``  basic block unreachable from the entry
``W103``  dead definition: the value written is never read on any path
``W104``  write to ``x0`` is architecturally discarded
``W105``  a loop anchors an SVR chain yet its vectorization plan is
          ``SCALAR_ONLY`` — runahead seeds exist but batching its
          iterations into lanes is statically illegal
``W106``  dead store: the register is overwritten before any read (the
          in-flow variant of ``W103``, with the clobbering pc identified)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    dead_definitions,
    dead_stores,
    unassigned_reads,
)
from repro.analysis.induction import LoadInfo, StrideAnalysis
from repro.analysis.taint import StaticChain, chains_for_program
from repro.analysis.vectorplan import SCALAR_ONLY, build_plan
from repro.isa.program import Program

# Serialization format version for LintReport.to_dict()/Diagnostic.to_dict().
# Reports emitted before the field existed are implicitly schema 1; schema 2
# added the version fields themselves plus the W105/W106 checks.
LINT_SCHEMA = 2

DIAGNOSTIC_CATALOG: dict[str, str] = {
    "E001": "control flow can fall off the end of the program",
    "E002": "assembly source failed to parse",
    "W101": "register is read before it is definitely assigned",
    "W102": "basic block is unreachable from the entry",
    "W103": "dead definition: the written value is never read",
    "W104": "write to x0 is discarded",
    "W105": "loop seeds an SVR chain but its plan is SCALAR_ONLY",
    "W106": "dead store: the register is overwritten before any read",
}


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: severity, stable code, location and rendered line."""

    severity: Severity
    code: str
    pc: int
    message: str
    line: str = ""           # disassembled instruction text

    def __str__(self) -> str:
        where = f"pc {self.pc:>4}"
        text = f"{where}: {self.severity}[{self.code}]: {self.message}"
        if self.line:
            text += f"   | {self.line}"
        return text

    def to_dict(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "severity": self.severity.value,
            "code": self.code,
            "pc": self.pc,
            "message": self.message,
            "line": self.line,
        }


@dataclass
class LintReport:
    """Everything the lint pass learned about one program."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    loads: list[LoadInfo] = field(default_factory=list)
    chains: list[StaticChain] = field(default_factory=list)
    num_blocks: int = 0
    num_loops: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (CI gate)."""
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "name": self.name,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "loads": [info.to_dict() for info in self.loads],
            "chains": [chain.to_dict() for chain in self.chains],
            "blocks": self.num_blocks,
            "loops": self.num_loops,
        }


def _disasm(program: Program, pc: int) -> str:
    if 0 <= pc < len(program):
        return str(program[pc])
    return ""


def lint_program(program: Program, name: str | None = None) -> LintReport:
    """Run every static check over *program* and return the report."""
    report = LintReport(name=name or program.name)
    cfg = build_cfg(program)
    report.num_blocks = len(cfg.blocks)
    report.num_loops = len(cfg.loops)
    diags = report.diagnostics

    if len(program) == 0:
        diags.append(Diagnostic(Severity.ERROR, "E001", 0,
                                "program is empty"))
        return report

    reachable_off_end = [pc for pc in cfg.off_end_pcs
                         if cfg.block_of(pc).start in cfg.reachable]
    for pc in sorted(reachable_off_end):
        diags.append(Diagnostic(
            Severity.ERROR, "E001", pc,
            "control flow can fall off the end of the program "
            "(missing halt)", _disasm(program, pc)))

    for block in cfg.unreachable_blocks:
        diags.append(Diagnostic(
            Severity.WARNING, "W102", block.start,
            f"unreachable block pc {block.start}..{block.end - 1}",
            _disasm(program, block.start)))

    for pc, reg in sorted(unassigned_reads(cfg)):
        diags.append(Diagnostic(
            Severity.WARNING, "W101", pc,
            f"x{reg} may be read before assignment "
            "(reads architectural zero)", _disasm(program, pc)))

    kills = {(pc, reg): kill for pc, reg, kill in dead_stores(cfg)}
    for pc, reg in sorted(dead_definitions(cfg)):
        kill = kills.get((pc, reg))
        if kill is not None:
            diags.append(Diagnostic(
                Severity.WARNING, "W106", pc,
                f"dead store to x{reg}: overwritten at pc {kill} "
                "before any read", _disasm(program, pc)))
        else:
            diags.append(Diagnostic(
                Severity.WARNING, "W103", pc,
                f"dead definition of x{reg}: value is never read",
                _disasm(program, pc)))

    for start in cfg.rpo:
        for pc in cfg.blocks[start].pcs:
            inst = program[pc]
            if inst.rd == 0:
                diags.append(Diagnostic(
                    Severity.WARNING, "W104", pc,
                    "write to x0 is discarded", _disasm(program, pc)))

    analysis = StrideAnalysis(cfg)
    report.loads = analysis.loads()
    report.chains = chains_for_program(cfg, report.loads)

    # W105: runahead will seed chains here, but the vectorization plan says
    # batching the loop's iterations into lanes is illegal.
    plan = build_plan(program, name=report.name)
    for lp in plan.loops:
        if lp.seeds and lp.verdict == SCALAR_ONLY:
            kinds = ", ".join(sorted({r.kind for r in lp.reasons}))
            diags.append(Diagnostic(
                Severity.WARNING, "W105", lp.header,
                f"loop seeds an SVR chain but its plan is SCALAR_ONLY "
                f"({kinds})", _disasm(program, lp.header)))

    diags.sort(key=lambda d: (d.pc, d.code))
    return report

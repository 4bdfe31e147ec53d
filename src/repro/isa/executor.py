"""Functional semantics for the mini-ISA.

:func:`execute` is a pure(ish) evaluator: it reads sources through a caller
supplied function and touches memory only through the provided
:class:`~repro.memory.main_memory.MainMemory`.  It is the reference
semantics of the ISA:

* :class:`~repro.cores.functional.FunctionalCore` runs it and nothing else;
* Vector Runahead's transient pass (:mod:`repro.svr.vr`) runs it with the
  source reader on a private register copy and stores suppressed
  (transient instructions must not affect architectural state);
* the timing cores inline the same semantics into their per-instruction
  step, and ``tests/test_core_differential.py`` requires them to end every
  random program in the state :class:`FunctionalCore` reaches.

SVR's per-lane transient execution evaluates ALU ops through
:func:`alu_fn`, the table :func:`execute` itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.instructions import Instruction, OpClass, Opcode
from repro.isa.registers import to_signed64, wrap64

_MASK64 = (1 << 64) - 1
# Fixed-point scale used by the FP-style ops (graph scores are Q32.16).
FP_SHIFT = 16


@dataclass(slots=True)
class ExecResult:
    """Outcome of functionally executing one instruction.

    ``value``    the result written to ``rd`` (or the store data)
    ``address``  effective memory address for LD/ST, else ``None``
    ``taken``    branch outcome for conditional branches, else ``None``
    ``next_pc``  PC of the next instruction to execute
    ``halted``   true when a HALT was executed
    """

    value: int | None = None
    address: int | None = None
    taken: bool | None = None
    next_pc: int = 0
    halted: bool = False
    src_a: int = 0     # rs1 value as read (LC register needs compare sources)
    src_b: int = 0     # rs2 value as read


# One evaluator per ALU/FP/CMP opcode, indexed by ``Instruction.opindex``.
# The hot paths (committed execution and SVR's per-lane transient execution)
# fetch the callable with one list index instead of walking an if-chain and
# hashing enum members.
_ALU_TABLE: dict[Opcode, Callable[[int, int, int], int]] = {
    Opcode.ADD: lambda a, b, imm: wrap64(a + b),
    Opcode.SUB: lambda a, b, imm: wrap64(a - b),
    Opcode.MUL: lambda a, b, imm: wrap64(a * b),
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.SLL: lambda a, b, imm: wrap64(a << (b & 63)),
    Opcode.SRL: lambda a, b, imm: a >> (b & 63),
    Opcode.MIN: lambda a, b, imm: wrap64(min(to_signed64(a), to_signed64(b))),
    Opcode.MAX: lambda a, b, imm: wrap64(max(to_signed64(a), to_signed64(b))),
    Opcode.ADDI: lambda a, b, imm: wrap64(a + imm),
    Opcode.ANDI: lambda a, b, imm: a & wrap64(imm),
    Opcode.ORI: lambda a, b, imm: a | wrap64(imm),
    Opcode.XORI: lambda a, b, imm: a ^ wrap64(imm),
    Opcode.SLLI: lambda a, b, imm: wrap64(a << (imm & 63)),
    Opcode.SRLI: lambda a, b, imm: a >> (imm & 63),
    Opcode.MULI: lambda a, b, imm: wrap64(a * imm),
    Opcode.LI: lambda a, b, imm: wrap64(imm),
    Opcode.MV: lambda a, b, imm: a,
    Opcode.FADD: lambda a, b, imm: wrap64(a + b),
    # Q32.16 fixed-point multiply.
    Opcode.FMUL: lambda a, b, imm: wrap64(
        (to_signed64(a) * to_signed64(b)) >> FP_SHIFT),
    Opcode.CMP_LT: lambda a, b, imm: 1 if to_signed64(a) < to_signed64(b) else 0,
    Opcode.CMP_LTU: lambda a, b, imm: 1 if a < b else 0,
    Opcode.CMP_EQ: lambda a, b, imm: 1 if a == b else 0,
    Opcode.CMP_NE: lambda a, b, imm: 1 if a != b else 0,
    Opcode.CMP_GE: lambda a, b, imm: 1 if to_signed64(a) >= to_signed64(b) else 0,
}

_ALU_BY_INDEX: list[Callable[[int, int, int], int] | None] = [
    _ALU_TABLE.get(op) for op in Opcode
]


def alu_fn(inst: Instruction) -> Callable[[int, int, int], int] | None:
    """The pre-decoded ``(a, b, imm) -> value`` evaluator for *inst*.

    ``None`` for non-ALU opcodes.  SVR hoists this lookup out of its
    per-lane loops.
    """
    return _ALU_BY_INDEX[inst.opindex]


def alu_compute(op: Opcode, a: int, b: int, imm: int) -> int:
    """Evaluate an ALU/FP/CMP operation on 64-bit values.

    Shared by committed and transient execution so the two can never drift.
    """
    fn = _ALU_TABLE.get(op)
    if fn is None:
        raise ValueError(f"not an ALU-evaluable opcode: {op}")
    return fn(a, b, imm)


def execute(
    inst: Instruction,
    pc: int,
    read_reg: Callable[[int], int],
    memory,
    commit_stores: bool = True,
) -> ExecResult:
    """Execute *inst* at *pc* and return the :class:`ExecResult`.

    ``read_reg`` supplies source operand values (architectural registers for
    real execution, SRF lanes for transient SVR execution).  ``memory`` must
    expose ``read_word(addr)`` / ``write_word(addr, value)``.  With
    ``commit_stores=False`` store data is computed but memory is untouched.
    """
    result = ExecResult(next_pc=pc + 1)
    opclass = inst.opclass

    if opclass is OpClass.LOAD:
        addr = wrap64(read_reg(inst.rs1) + inst.imm)
        result.address = addr
        result.value = memory.read_word(addr)
    elif opclass is OpClass.STORE:
        addr = wrap64(read_reg(inst.rs1) + inst.imm)
        result.address = addr
        result.value = read_reg(inst.rs2)
        if commit_stores:
            memory.write_word(addr, result.value)
    elif opclass is OpClass.BRANCH:
        value = read_reg(inst.rs1)
        result.src_a = value
        if (value == 0) if inst.op is Opcode.BEQZ else (value != 0):
            result.taken = True
            result.next_pc = inst.target
        else:
            result.taken = False
    elif opclass is OpClass.JUMP:
        result.taken = True
        result.next_pc = inst.target
    elif opclass is OpClass.HALT:
        result.halted = True
        result.next_pc = pc
    elif opclass is OpClass.NOP:
        pass
    else:
        a = read_reg(inst.rs1) if inst.rs1 is not None else 0
        b = read_reg(inst.rs2) if inst.rs2 is not None else 0
        result.src_a = a
        result.src_b = b
        result.value = _ALU_BY_INDEX[inst.opindex](a, b, inst.imm)

    return result


def fixed_point(value: float) -> int:
    """Convert a float to the Q32.16 fixed-point encoding used by kernels."""
    return wrap64(int(round(value * (1 << FP_SHIFT))))


def from_fixed_point(value: int) -> float:
    """Convert a Q32.16 fixed-point register value back to a float."""
    return to_signed64(value) / (1 << FP_SHIFT)

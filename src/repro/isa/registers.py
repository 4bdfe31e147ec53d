"""Architectural register file.

32 64-bit integer registers, ``x0`` hard-wired to zero (RISC-V style).
Values are stored as Python ints and wrapped to 64 bits on write so that
shifts and multiplies behave like hardware registers.
"""

from __future__ import annotations

NUM_REGS = 32
_MASK64 = (1 << 64) - 1

REG_NAMES = {f"x{i}": i for i in range(NUM_REGS)}
# Convenience ABI-ish aliases used by the kernel builders.
REG_NAMES.update({"zero": 0, "ra": 1, "sp": 2})
for _i in range(10):
    REG_NAMES[f"a{_i}"] = 10 + _i     # a0..a9 -> x10..x19
for _i in range(12):
    REG_NAMES[f"t{_i}"] = 20 + _i     # t0..t11 -> x20..x31
for _i in range(7):
    REG_NAMES[f"s{_i}"] = 3 + _i      # s0..s6  -> x3..x9


def reg_index(reg: int | str | None) -> int | None:
    """Resolve a register name or index to its architectural index."""
    if reg is None:
        return None
    if isinstance(reg, int):
        if not 0 <= reg < NUM_REGS:
            raise ValueError(f"register index out of range: {reg}")
        return reg
    try:
        return REG_NAMES[reg]
    except KeyError:
        raise ValueError(f"unknown register name: {reg!r}") from None


def wrap64(value: int) -> int:
    """Wrap *value* to an unsigned 64-bit integer."""
    return value & _MASK64


def to_signed64(value: int) -> int:
    """Interpret an unsigned 64-bit value as signed."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class RegisterFile:
    """The architectural integer register file.

    ``values`` is the live list of the 32 register values.  The timing
    cores index it directly on their per-instruction path, so it is never
    rebound: :meth:`load` rewrites it in place.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values = [0] * NUM_REGS

    def read(self, index: int) -> int:
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        if index != 0:
            self.values[index] = value & _MASK64

    def snapshot(self) -> list[int]:
        return list(self.values)

    def load(self, values: list[int]) -> None:
        if len(values) != NUM_REGS:
            raise ValueError("snapshot must have exactly 32 registers")
        self.values[:] = [v & _MASK64 for v in values]
        self.values[0] = 0

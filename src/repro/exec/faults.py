"""Deterministic fault injection for the execution layer.

The timeout / retry / resume / salvage machinery in
:mod:`repro.exec.executor` must itself be testable, so this module lets a
:class:`FaultPlan` force failures into chosen cells: each
:class:`FaultSpec` matches cells by ``fnmatch`` globs over workload and
technique name, with an optional attempt budget (``times``) so a fault
can hit only the first N attempts ("flaky").  The same plan always
fails the same attempts of the same cells, on any machine, in any
worker process.

Fault kinds map onto the executor's failure taxonomy: ``crash`` raises,
``hang`` blocks forever in an isolated worker (exercising the wall-clock
timeout kill) or raises :class:`~repro.cores.base.SimulationError` inline
(exercising the watchdog path), ``flaky`` is a crash that only affects
the first attempt and therefore succeeds on retry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.cores.base import SimulationError

FAULT_KINDS = ("crash", "hang", "flaky")


class InjectedCrash(RuntimeError):
    """Raised in place of a simulation by a crash/flaky fault."""


class InjectedHang(SimulationError):
    """Inline stand-in for a hang: classified like a watchdog trip."""


@dataclass(frozen=True)
class FaultSpec:
    """Target one set of cells: glob over workload and technique name."""

    workload: str = "*"
    technique: str = "*"
    kind: str = "crash"
    times: int | None = None    # attempts affected; None = every attempt
                                # (flaky defaults to the first attempt only)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"FaultSpec.kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.times is not None and self.times < 1:
            raise ValueError(
                f"FaultSpec.times must be >= 1 (or None), got {self.times}")

    def matches(self, workload: str, technique: str) -> bool:
        return (fnmatchcase(workload, self.workload)
                and fnmatchcase(technique, self.technique))

    def effective_times(self) -> int:
        """Number of attempts affected; -1 means every attempt."""
        if self.times is not None:
            return self.times
        return 1 if self.kind == "flaky" else -1


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable description of which cells fail and how."""

    specs: tuple[FaultSpec, ...] = ()

    def decide(self, workload: str, technique: str,
               attempt: int) -> str | None:
        """Fault kind to inject for this (cell, attempt), or None: that of
        the first spec that matches the cell and still covers *attempt*.

        ``flaky`` resolves to ``"crash"`` on affected attempts so callers
        only ever see the executable kinds (crash / hang).
        """
        for spec in self.specs:
            if not spec.matches(workload, technique):
                continue
            times = spec.effective_times()
            if times >= 0 and attempt > times:
                continue
            return "crash" if spec.kind == "flaky" else spec.kind
        return None


def apply_fault(kind: str, *, inline: bool, label: str = "") -> None:
    """Execute the decided fault.  ``hang`` in an isolated worker blocks
    until the parent's wall-clock timeout kills the process; inline it
    raises like a watchdog trip (the parent cannot kill itself)."""
    suffix = f" in {label}" if label else ""
    if kind == "crash":
        raise InjectedCrash(f"injected crash{suffix} (fault plan)")
    if kind == "hang":
        if inline:
            raise InjectedHang(
                f"injected hang{suffix} (fault plan, inline executor)")
        while True:          # the parent terminates us at the timeout
            time.sleep(0.05)
    raise ValueError(f"unexecutable fault kind {kind!r}")


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``WORKLOAD/TECHNIQUE:KIND[:TIMES]``.

    Globs are allowed in both the workload and technique parts, e.g.
    ``'Camel/*l1_mshrs=2*:hang:1'`` hangs the first attempt of every
    matching sweep cell.
    """
    target, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(
            f"fault spec {text!r} must look like "
            f"'WORKLOAD/TECHNIQUE:KIND[:TIMES]'")
    kind, _, times_text = tail.partition(":")
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"fault spec {text!r}: kind must be one of {FAULT_KINDS}, "
            f"got {kind!r}")
    workload, sep, technique = target.partition("/")
    if not sep:
        technique = "*"
    times = None
    if times_text:
        try:
            times = int(times_text)
        except ValueError:
            raise ValueError(
                f"fault spec {text!r}: TIMES must be an integer, "
                f"got {times_text!r}") from None
    return FaultSpec(workload=workload or "*", technique=technique or "*",
                     kind=kind, times=times)

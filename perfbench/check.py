"""Output check: run untimed, once per invocation, over every distinct cell.

Each cell is simulated again in this process, through
:func:`repro.harness.runner.run` on a workload built here so that its
final state stays reachable.  A cell passes when

* its result dict equals the one the sweep reported (so the timed path,
  inline or forked, with telemetry or without, computed what a plain
  run computes), and
* the final architectural state (memory image, registers, pc) equals
  that of a :class:`repro.cores.functional.FunctionalCore` run over the
  same number of committed instructions (so SVR's, IMP's and VR's
  transient work never reached architectural state).

The check also yields the committed instruction count of every cell,
warmup and measured windows together: the numerator of ``sim_ips``.
CPI-stack, load-level and prefetch reconciliation are *not* checked
here; ``run.py`` reports them as per-layer counts instead.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np

from repro.cores.functional import FunctionalCore
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.harness.runner import run
from repro.isa.registers import NUM_REGS
from repro.workloads.registry import build_workload


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def digest(results: dict[str, dict]) -> str:
    """One hash of every cell's result dict, independent of run order."""
    h = hashlib.sha256()
    for key in sorted(results):
        h.update(key.encode())
        h.update(canonical(results[key]).encode())
    return h.hexdigest()[:16]


@contextmanager
def _capture_cores():
    """Collect (core, committed instructions) for every core window run."""
    windows: list = []
    originals = {cls: cls.run for cls in (InOrderCore, OutOfOrderCore)}

    def make(original):
        def run_window(core, *args, **kwargs):
            stats = original(core, *args, **kwargs)
            windows.append((core, stats.instructions))
            return stats
        return run_window

    for cls, original in originals.items():
        cls.run = make(original)
    try:
        yield windows
    finally:
        for cls, original in originals.items():
            cls.run = original


def _state(core) -> tuple:
    return (core.pc, [core.regs.read(i) for i in range(NUM_REGS)],
            core.memory.words)


def _reference(workload: str, scale: str, count: int) -> tuple:
    wl = build_workload(workload, scale)
    core = FunctionalCore(wl.program, wl.memory)
    core.run(count)
    return _state(core)


def check_cells(specs, reported: dict[str, dict]) -> dict:
    """Check every distinct cell of *specs* against *reported* (key ->
    result dict, or None for a cell that failed in the sweep).

    Returns ``{"failed": {key: reason}, "instructions": {key: count}}``.
    """
    failed: dict[str, str] = {}
    instructions: dict[str, int] = {}
    references: dict[tuple, tuple] = {}
    seen = set()
    for spec in specs:
        key = spec.key
        if key in seen:
            continue
        seen.add(key)
        if reported.get(key) is None:
            failed[key] = "failed in the sweep"
            continue
        wl = build_workload(spec.workload, spec.scale)
        with _capture_cores() as windows:
            result = run(wl, spec.tech, scale=spec.scale,
                         warmup=spec.warmup, measure=spec.measure).to_dict()
        core = windows[-1][0]
        instructions[key] = sum(n for _core, n in windows)
        if canonical(result) != canonical(reported[key]):
            failed[key] = "result differs from a plain re-run"
            continue
        ref_key = (spec.workload, spec.scale, core.lifetime_instructions)
        if ref_key not in references:
            references[ref_key] = _reference(*ref_key)
        pc, regs, words = _state(core)
        ref_pc, ref_regs, ref_words = references[ref_key]
        if pc != ref_pc or regs != ref_regs:
            failed[key] = "registers differ from the functional core"
        elif not np.array_equal(words, ref_words):
            failed[key] = "memory differs from the functional core"
    return {"failed": failed, "instructions": instructions}

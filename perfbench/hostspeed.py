"""Host speed, measured by two fixed references.

The sandbox this benchmark was defined on shares its cores with other
tenants: the same sweep's wall time moved by a quarter within two minutes
and halved over ten, and set-up time moved with it.  ``run.py`` therefore
times two references between its interpreters and reports the time
metrics at a fixed, nominal host speed:

* :func:`reference_s`, a pure-Python kernel doing what the simulator
  does most (method calls, attribute and dict traffic, small-integer
  arithmetic, data-dependent branches), scales ``sim_ips``;
* :func:`import_reference_s`, a fresh interpreter importing the
  libraries the simulator imports, scales ``setup_s``.  Under contention
  set-up slowed less than the kernel did (+95% against +140%), so the
  kernel alone over-corrected it.

Neither touches the repository's code, so no change to the simulator can
change their time.  Never edit them: a new reference would rescale every
normalised figure.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Seconds each reference takes at the nominal host speed, roughly that of
# CPython 3.11 on the 2-vCPU x86 VM the benchmark was defined on.
NOMINAL_S = 0.5
IMPORT_NOMINAL_S = 0.15
_STEPS = 500_000
_IMPORTS = ("import argparse, dataclasses, hashlib, json, multiprocessing, "
            "numpy")


class _Line:
    __slots__ = ("tag", "age", "dirty")

    def __init__(self, tag: int, age: int) -> None:
        self.tag = tag
        self.age = age
        self.dirty = False


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [{} for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1
        self.misses = 0

    def access(self, addr: int, now: int, store: bool) -> float:
        lines = self.sets[addr & self.mask]
        tag = addr >> 6
        line = lines.get(tag)
        if line is not None:
            line.age = now
            line.dirty |= store
            return 2.0
        self.misses += 1
        if len(lines) >= self.ways:
            victim = min(lines.values(), key=lambda entry: entry.age)
            del lines[victim.tag]
        lines[tag] = _Line(tag, now)
        return 40.0


def _kernel(steps: int) -> float:
    cache = _Cache(64, 8)
    regs = [0] * 32
    x = 12345
    cycle = 0.0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        op = x & 3
        if op == 0:
            cycle += cache.access(x % 50_000, i, False)
        elif op == 1:
            cycle += cache.access((x >> 3) % 50_000, i, True)
        else:
            regs[x & 31] = (regs[(x >> 5) & 31] + x) & 0xFFFFFFFF
            cycle += 1.0
    return cycle


def reference_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel(_STEPS)
    return time.perf_counter() - start


def import_reference_s() -> float:
    """Wall seconds for a fresh interpreter to start, import numpy and the
    standard modules the simulator's set-up imports, and exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", _IMPORTS], check=True)
    return time.monotonic() - start

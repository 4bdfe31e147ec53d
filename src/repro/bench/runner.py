"""The self-benchmark runner: repetitions, statistics, artifacts.

:func:`run_benchmarks` executes the selected microbenchmarks, timing
each repetition with ``time.perf_counter`` around a fresh ``setup``
(build cost never pollutes the measurement), and summarises throughput
as median/MAD across repetitions.

:func:`write_artifact` serialises the summary as a schema-versioned
``BENCH_<utcstamp>.json`` at the repository root (or any directory),
with the environment captured (Python, platform, CPU count, git SHA) so
trajectory points from different machines are distinguishable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

from repro.bench.micro import Benchmark, select_benchmarks

SCHEMA_VERSION = 1
REPETITIONS = 5


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: list[float], centre: float | None = None) -> float:
    """Median absolute deviation (unscaled) around *centre*."""
    if centre is None:
        centre = median(values)
    return median([abs(v - centre) for v in values])


def _stat(values: list[float]) -> dict[str, float]:
    centre = median(values)
    return {"median": round(centre, 6), "mad": round(mad(values, centre), 6),
            "min": round(min(values), 6), "max": round(max(values), 6)}


def run_one(bench: Benchmark,
            repetitions: int = REPETITIONS) -> dict[str, Any]:
    """Run every repetition of one benchmark and summarise it; never
    raises on bench failure — the error is recorded so the remaining
    benchmarks run."""
    entry: dict[str, Any] = {"group": bench.group, "unit": bench.unit,
                             "description": bench.description}
    wall_s: list[float] = []
    try:
        for _ in range(repetitions):
            rep = bench.setup()
            start = time.perf_counter()
            work = rep()
            wall_s.append(time.perf_counter() - start)
    except Exception as exc:   # noqa: BLE001 — recorded, not propagated
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry
    entry.update({
        "repetitions": repetitions,
        "units": work.units,
        "sim_cycles": work.sim_cycles,
        "instructions": work.instructions,
        "wall_s": _stat(wall_s),
        "throughput": _stat([work.units / w for w in wall_s]),
    })
    if work.sim_cycles is not None:
        entry["sim_cycles_per_s"] = _stat(
            [work.sim_cycles / w for w in wall_s])
    if work.instructions is not None:
        entry["instr_per_s"] = _stat(
            [work.instructions / w for w in wall_s])
    return entry


def git_sha() -> str | None:
    """HEAD commit of the enclosing checkout, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def capture_environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def run_benchmarks(only: tuple[str, ...] = (),
                   repetitions: int = REPETITIONS) -> dict[str, Any]:
    """Run the benchmarks matching the fnmatch patterns *only* (all if
    empty) and return the artifact-ready summary."""
    if repetitions < 2:
        raise ValueError("repetitions must be >= 2 "
                         "(MAD needs at least two samples)")
    benches = select_benchmarks(only)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # Every benchmark runs at one size; earlier points of the
        # trajectory may carry "quick": true (smaller sizes).
        "quick": False,
        "repetitions": repetitions,
        "environment": capture_environment(),
        "benchmarks": {b.name: run_one(b, repetitions) for b in benches},
    }


def artifact_name() -> str:
    """Unique, lexicographically-ordered ``BENCH_*.json`` file name."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"BENCH_{stamp}-{int(time.time() * 1e6) % 1_000_000:06d}.json"


def write_artifact(summary: dict[str, Any],
                   root: str | Path = ".") -> Path:
    """Write *summary* as the next trajectory point under *root*."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / artifact_name()
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path

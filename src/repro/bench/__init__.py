"""Self-benchmarking: seven microbenchmarks of the simulator's hot paths.

Two pieces:

* :mod:`repro.bench.micro`  — the benchmarks, one literal tuple; each
  stays inside one layer of perfbench's traced ledger (core stepping,
  SVR PRM rounds, cache/TLB/DRAM models, the assembler);
* :mod:`repro.bench.runner` — repetition loop, median/MAD statistics,
  environment capture and the schema-versioned ``BENCH_<utcstamp>.json``
  trajectory artifacts that ``repro report`` draws.

End-to-end throughput, and whether a change made it worse, is measured
by ``perfbench/run.py`` alone (``docs/performance.md``).
"""

from __future__ import annotations

from repro.bench.micro import (
    BENCHMARKS,
    Benchmark,
    Work,
    select_benchmarks,
)
from repro.bench.runner import (
    capture_environment,
    git_sha,
    mad,
    median,
    run_benchmarks,
    run_one,
    write_artifact,
)

__all__ = [
    "BENCHMARKS",
    "Benchmark",
    "Work",
    "capture_environment",
    "git_sha",
    "mad",
    "median",
    "run_benchmarks",
    "run_one",
    "select_benchmarks",
    "write_artifact",
]

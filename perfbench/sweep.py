"""One workload sweep in a fresh interpreter (started by ``run.py``).

    python3 perfbench/sweep.py --workload W --seed N [--sweep I] --since T
        --out FILE [--setup-only | --trace]

``--since`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start-up, the imports
and building the cell list, up to the submission of the first cell.
``--setup-only`` stops there.  Otherwise the cells run through
:func:`repro.exec.run_cells` and *FILE* receives the sweep's wall time,
peak RSS and every cell's outcome; with ``--trace`` the simulator's layer
boundaries are wrapped first (see ``ledger.py``) and the ledger is added.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cells  # noqa: E402
from repro.exec import run_cells  # noqa: E402


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest reaped worker."""
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0                      # Linux reports KiB


def outcome_record(outcome) -> dict:
    return {"status": outcome.status, "attempts": outcome.attempts,
            "result": outcome.result,
            "failure": str(outcome.failure) if outcome.failure else None}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, default=0)
    parser.add_argument("--since", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sweep = run_cells
    ledger = None
    if args.trace:
        from ledger import Ledger, install

        ledger = Ledger(Path(tempfile.mkdtemp(dir=args.out.parent,
                                              prefix="workers-")))
        install(ledger)
        sweep = ledger.wrap("exec.run_cells", run_cells,
                            on_enter=ledger.enter_sweep)
    specs, config = cells.build(args.workload, args.seed, args.sweep)
    setup_s = time.monotonic() - args.since
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return

    start = time.perf_counter()
    report = sweep(specs, config)
    wall_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib(),
        "cells": {o.key: outcome_record(o) for o in report.outcomes},
    }
    if ledger is not None:
        out["workers_merged"] = ledger.merge_workers()
        ledger.worker_dir.rmdir()
        out["ledger"] = ledger.export()
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()

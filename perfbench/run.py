"""The repository benchmark: host throughput of three simulation sweeps.

    python3 perfbench/run.py --workload fig1-bench --seed 1 --seconds 12 \\
        --trace 0

Run from the repository root.  Every sweep runs in a fresh interpreter
(``sweep.py``), one client running cells back to back (``jobs=1``).
``--trace 0`` measures the end-to-end metrics, with times scaled to a
fixed host speed (``hostspeed.py``); ``--trace 1`` runs one untraced and
one traced sweep and reports the per-layer ledger.  Either way the output
check (``check.py``) runs once over every distinct cell, and the last
line of stdout is one JSON object with the results.  See ``README.md`` in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cells
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh interpreters that only set up, on top of each sweep's own set-up.
SETUP_SAMPLES = 3
SWEEP_TIMEOUT_S = 150.0
STALL_REASONS = ("base", "mem-l1", "mem-l2", "mem-dram", "branch", "other")
PREFETCH_ORIGINS = ("stride", "imp", "svr", "vr")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def start_sweep(workload: str, seed: int, tmp: Path, tag: str,
                *flags: str) -> dict:
    """Run ``sweep.py`` in a fresh interpreter and return its report."""
    out = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    since = time.monotonic()
    proc = subprocess.run([*cmd, "--since", repr(since)],
                          capture_output=True, text=True,
                          timeout=SWEEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{tag} sweep exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def results_of(sweep: dict) -> dict[str, dict | None]:
    return {key: cell["result"] for key, cell in sweep["cells"].items()}


def sim_ips(sweep: dict, instructions: dict[str, int]) -> float:
    return sum(instructions.values()) / sweep["wall_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(sweeps: list[dict], setups: list[float],
               instructions: dict[str, int], slowdown: dict) -> dict:
    """Medians over the run; times are scaled to the nominal host speed
    (*slowdown* says how much slower than nominal each reference ran)."""
    return {
        "sim_ips": metric(slowdown["kernel"] * statistics.median(
            sim_ips(s, instructions) for s in sweeps), "instr/s"),
        "setup_s": metric(statistics.median(setups) / slowdown["imports"],
                          "s"),
        "peak_rss_mib": metric(statistics.median(
            s["peak_rss_mib"] for s in sweeps), "MiB"),
    }


def per_layer(traced: dict, base_ips: float,
              instructions: dict[str, int]) -> dict:
    """The per-layer ledger of one traced sweep."""
    ledger = traced["ledger"]
    self_s = ledger["self_s"]
    counts = ledger["counts"]

    def calls(boundary: str) -> int:
        return ledger["boundaries"].get(boundary, (0, 0.0))[0]

    outcomes = traced["cells"].values()
    results = [c["result"] for c in outcomes if c["result"] is not None]

    def total(field: str) -> float:
        return sum(r[field] for r in results)

    def per_origin(field: str, origin: str) -> int:
        return sum(r[field][origin] for r in results)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    svr = [r["svr"] for r in results if r.get("svr")]
    loads = total("l1_load_hits") + total("l2_load_hits") + total("dram_loads")
    instr = counts.get("instructions", 0)
    lanes = counts.get("svi_lanes", 0)
    out = {
        "exec.self_s": (self_s["exec"], "s"),
        "exec.spawns": (calls("exec.spawn"), "count"),
        "exec.cells": (len(outcomes), "count"),
        "exec.cells_failed": (sum(c["status"] != "ok" for c in outcomes),
                              "count"),
        "exec.retries": (sum(c["attempts"] - 1 for c in outcomes), "count"),
        "obs.self_s": (self_s["obs"], "s"),
        "obs.probe_emits": (calls("obs.emit"), "count"),
        "workloads.build_s": (self_s["workloads"], "s"),
        "workloads.builds": (calls("workloads.build"), "count"),
        "analysis.plan_s": (self_s["analysis"], "s"),
        "analysis.plans_built": (calls("analysis.build_plan"), "count"),
        "harness.self_s": (self_s["harness"], "s"),
        "cores.self_s": (self_s["cores"], "s"),
        "cores.ns_per_instr": (1e9 * ratio(self_s["cores"], instr),
                               "ns/instr"),
        "cores.instructions": (instr, "count"),
        "cores.sim_cycles": (total("cycles"), "cycles"),
    }
    for reason in STALL_REASONS:
        out[f"cores.stall_cycles.{reason}"] = (
            sum(r["cpi_stack"][reason] * r["instructions"]
                for r in results), "cycles")
    out["cores.cpi_stack_imbalanced_cells"] = (sum(
        sum(r["cpi_stack"].values()) * r["instructions"]
        > r["cycles"] * (1 + 1e-9) + 1e-6 for r in results), "count")
    out.update({
        "isa.execute_s": (self_s["isa"], "s"),
        "isa.execute_calls": (calls("isa.execute"), "count"),
        "memory.self_s": (self_s["memory"], "s"),
        "memory.accesses": (calls("memory.load") + calls("memory.store")
                            + calls("memory.prefetch"), "count"),
        "memory.l1_hit_ratio": (ratio(total("l1_load_hits"), loads),
                                "ratio"),
        "memory.dram_loads": (total("dram_loads"), "count"),
    })
    for origin in PREFETCH_ORIGINS:
        out[f"memory.prefetch_useful_ratio.{origin}"] = (ratio(
            per_origin("prefetch_useful", origin),
            per_origin("prefetches_issued", origin)), "ratio")
    out.update({
        "memory.load_levels_imbalanced_cells": (sum(
            r["l1_load_hits"] + r["l2_load_hits"] + r["dram_loads"]
            != r["loads"] for r in results), "count"),
        "memory.prefetch_overcount_cells": (sum(
            any(r["prefetch_useful"][o] + r["prefetch_useless"][o]
                > r["prefetches_issued"][o] for o in PREFETCH_ORIGINS)
            for r in results), "count"),
        "svr.self_s": (self_s["svr"], "s"),
        "svr.after_issue_calls": (calls("svr.after_issue"), "count"),
        "svr.prm_rounds": (counts.get("prm_rounds", 0), "count"),
        "svr.svi_lanes": (lanes, "count"),
        "svr.ns_per_lane": (1e9 * ratio(self_s["svr"], lanes), "ns/lane"),
        "svr.masked_lane_ratio": (ratio(
            sum(s["masked_lanes"] for s in svr),
            sum(s["svi_lanes"] for s in svr)), "ratio"),
        "branch.self_s": (self_s["branch"], "s"),
        "branch.predictions": (calls("branch.predict"), "count"),
        "branch.mispredict_ratio": (ratio(total("mispredicts"),
                                          total("branches")), "ratio"),
        "other.self_s": (traced["wall_s"] - sum(self_s.values()), "s"),
        "trace.overhead": (1.0 - sim_ips(traced, instructions) / base_ips,
                           "ratio"),
    })
    return {name: metric(value, unit) for name, (value, unit) in out.items()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed sweeps repeat until they add up to "
                             "this much wall time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    try:
        return measure(args, tmp)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args: argparse.Namespace, tmp: Path) -> int:
    workload, seed = args.workload, args.seed
    setups: list[float] = []
    sweeps: list[dict] = []
    references: dict[str, list[float]] = {"kernel": [], "imports": []}

    def sample_host() -> None:
        references["kernel"].append(hostspeed.reference_s())
        references["imports"].append(hostspeed.import_reference_s())

    traced = None
    if args.trace:
        sweeps.append(start_sweep(workload, seed, tmp, "untraced"))
        traced = start_sweep(workload, seed, tmp, "traced", "--trace")
    else:
        # The host's speed is sampled before and after every interpreter.
        sample_host()
        for i in range(SETUP_SAMPLES):
            setups.append(start_sweep(workload, seed, tmp, f"setup{i}",
                                      "--setup-only")["setup_s"])
            sample_host()
        while (not sweeps
               or sum(s["wall_s"] for s in sweeps) < args.seconds):
            sweeps.append(start_sweep(workload, seed, tmp,
                                      f"timed{len(sweeps)}",
                                      "--sweep", str(len(sweeps))))
            setups.append(sweeps[-1]["setup_s"])
            sample_host()

    # The check imports the simulator only now, after every timed sweep.
    sys.path.insert(0, str(ROOT / "src"))
    import check

    specs, _config = cells.build(workload, seed)
    verdict = check.check_cells(specs, results_of(sweeps[0]))
    instructions = verdict["instructions"]
    digests = {check.digest(results_of(s)) for s in sweeps}
    problems = [f"{key}: {sweeps[0]['cells'][key]['failure'] or why}"
                for key, why in verdict["failed"].items()]
    if len(digests) != 1:
        problems.append(f"sweeps disagree: digests {sorted(digests)}")
    attempted = len(sweeps[0]["cells"])
    failed = len(verdict["failed"])

    if traced is None:
        slowdown = {
            "kernel": statistics.median(references["kernel"])
            / hostspeed.NOMINAL_S,
            "imports": statistics.median(references["imports"])
            / hostspeed.IMPORT_NOMINAL_S}
        metrics = end_to_end(sweeps, setups, instructions, slowdown)
        print(f"references took {slowdown['kernel']:.4f}x (kernel) and "
              f"{slowdown['imports']:.4f}x (imports) their nominal time; "
              f"unscaled sim_ips "
              f"{metrics['sim_ips']['value'] / slowdown['kernel']:.6g} "
              f"instr/s, setup_s "
              f"{metrics['setup_s']['value'] * slowdown['imports']:.6g} s")
    else:
        traced_digest = check.digest(results_of(traced))
        if traced_digest not in digests:
            problems.append(f"traced digest {traced_digest} differs from "
                            f"untraced {sorted(digests)}")
        spawns = traced["ledger"]["boundaries"].get("exec.spawn", (0,))[0]
        if traced["workers_merged"] != spawns:
            problems.append(f"{traced['workers_merged']} worker ledgers "
                            f"for {spawns} spawned workers")
        metrics = per_layer(traced,
                            sim_ips(sweeps[0], instructions), instructions)
        ledger_path = OUT / f"ledger-{workload}-seed{seed}.json"
        ledger_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "wall_s": traced["wall_s"],
            "digest": traced_digest, "metrics": metrics,
            **traced["ledger"]}, indent=1))
        print(f"ledger written to {ledger_path.relative_to(ROOT)}")

    digest = sorted(digests)[0]
    print(f"perfbench {workload} seed={seed}: {attempted} cells, "
          f"{len(sweeps)} untraced sweep(s)"
          f"{', 1 traced sweep' if traced else ''}, digest {digest}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells failed)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

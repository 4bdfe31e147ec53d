#!/usr/bin/env python3
"""Cross-process telemetry tour: a parallel sweep observed end to end.

Runs a small vector-length sweep with two fault-isolated workers and
telemetry capture on, then shows what survives the process boundary:
per-cell CPU/RSS resource samples, the deterministically merged metric
snapshot, the parent's spans and each cell's phase spans as one
Perfetto trace (one process track per worker pid), and a
self-contained HTML dashboard.

Usage::

    python examples/observe_sweep.py [workload] [scale] [outdir]

    workload  any registry name (default Camel) — try PR_KR, BFS_UR
    scale     tiny | bench | default (default tiny)
    outdir    artifact directory (default results/observe_sweep)
"""

import sys
from pathlib import Path

from repro.exec import ExecConfig, TelemetryConfig
from repro.harness.dashboard import generate_report
from repro.harness.sweeps import SweepAxis, sweep_report
from repro.obs import validate_trace, write_trace


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "Camel"
    scale = sys.argv[2] if len(sys.argv) > 2 else "tiny"
    outdir = Path(sys.argv[3] if len(sys.argv) > 3
                  else "results/observe_sweep")
    outdir.mkdir(parents=True, exist_ok=True)
    journal = outdir / "journal.jsonl"
    journal.unlink(missing_ok=True)

    report = sweep_report(
        (workload,), "svr16",
        [SweepAxis("svr.vector_length", (8, 16, 32))],
        scale=scale,
        exec_config=ExecConfig(jobs=2, journal=str(journal),
                               telemetry=TelemetryConfig()))

    print(f"sweep over svr.vector_length on {workload} ({scale}):")
    for combo, value in report.values.items():
        shown = f"{value:.3f}" if value is not None else "FAILED"
        print(f"  vector_length={combo[0]:<4} speedup {shown}")

    res = report.exec_report.resources()
    print(f"\nresources: {res['cells']} cells, cpu {res['cpu_s']:.2f}s, "
          f"max rss {res['max_rss_kib'] // 1024} MiB, "
          f"{len(res['pids'])} worker pid(s)")

    print("\nper-cell samples (shipped over the worker result pipe):")
    for telem in report.exec_report.telemetry_records():
        spans = {s["name"] for s in telem.get("spans", ())}
        print(f"  pid {telem['pid']}  "
              f"{telem['workload']}/{telem['technique']:<22} "
              f"cpu {telem['cpu_s']:.3f}s  "
              f"spans {sorted(spans & {'build', 'warmup', 'measure'})}")

    merged = report.exec_report.merged_metrics()
    instr = merged.get("core.instructions", {}).get("value", 0)
    print(f"\nmerged metrics: {len(merged)} series; "
          f"core.instructions (summed across workers) = {instr}")

    trace = report.exec_report.trace()
    trace_path = outdir / "trace.json"
    write_trace(trace, trace_path)
    problems = validate_trace(trace)
    tracks = sum(1 for ev in trace["traceEvents"]
                 if ev.get("ph") == "M" and ev.get("name") == "process_name")
    print(f"\nmerged trace: {trace_path} ({tracks} process tracks, "
          f"{'well-formed' if not problems else problems})")

    html_path, _data = generate_report(
        journals=[journal], out_path=outdir / "report.html")
    print(f"dashboard: {html_path}")
    print("open the trace at https://ui.perfetto.dev; "
          "the dashboard is plain HTML")


if __name__ == "__main__":
    main()

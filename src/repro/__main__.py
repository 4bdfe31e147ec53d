"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``                          show workloads, techniques and figures
``run WORKLOAD TECH [options]``   simulate one pair and print the result
``stats WORKLOAD [TECH]``         run fully instrumented; print the metric
                                  registry and the wall-clock self-profile
``figure NAME [options]``         regenerate one paper figure
``sweep BASE [options]``          generic parameter sweep over config axes
``trace WORKLOAD [TECH]``         instruction-level ASCII timeline
``overhead [N] [K]``              print the Table II budget
``lint TARGET... | --all``        static analysis: diagnostics, load
                                  classes and SVR chain estimates for
                                  workloads or ``.s`` files
``bench [options]``               microbenchmark the simulator's hot
                                  paths; write a ``BENCH_*.json``
                                  trajectory artifact
``report [options]``              self-contained HTML dashboard from
                                  exec journals, run logs and
                                  ``BENCH_*.json`` trajectory files
``serve [options]``               long-lived simulation service: warm
                                  worker pool, bounded job queue,
                                  circuit breakers and a crash-safe
                                  content-addressed result cache
``submit WORKLOAD TECH [opts]``   submit one cell to a running server
                                  (``--wait`` polls to the verdict)
``jobs [options]``                list a running server's jobs / health
                                  (queue wait + live progress per job)
``top [options]``                 self-refreshing terminal view of a
                                  server (or a local journal): workers,
                                  queue depth, per-job progress bars

``run`` and ``stats`` accept ``--json`` (print ``SimResult.to_dict()`` as
JSON), ``--jsonl PATH`` (append a structured run record) and
``--chrome-trace PATH`` (export a Perfetto-viewable trace); ``figure``
accepts ``--jsonl PATH``.

``figure`` and ``sweep`` route every simulation cell through the
resilient executor (:mod:`repro.exec`) and share its flags: ``--jobs N``
(parallel fault-isolated workers), ``--timeout SECONDS`` (wall-clock kill
fence per cell), ``--retries N``, ``--journal PATH`` +  ``--resume``
(checkpoint cells and re-run only what failed), and
``--inject WORKLOAD/TECH:KIND[:TIMES]`` + ``--fault-seed`` (deterministic
fault injection for drills).  Failed cells render as ``-``/``FAILED``
with a structured failure summary on stderr and exit status 1.

CLI exec runs capture per-cell telemetry by default — phase spans, a
metric snapshot, CPU time and max RSS per worker, shipped back over the
result pipe and into the journal (``--no-telemetry`` opts out).  ``sweep
--trace PATH`` writes the merged Perfetto trace with one process track
per worker pid; ``report`` renders journals / run logs / bench
trajectories into one static HTML dashboard.

Examples::

    python -m repro run PR_KR svr16 --scale bench
    python -m repro run PR_KR svr16 --chrome-trace /tmp/t.json
    python -m repro stats Camel svr16 --scale tiny
    python -m repro figure fig1 --workloads PR_KR,Camel --scale bench
    python -m repro figure fig11 --jobs 4 --timeout 600 \\
        --journal results/fig11.jsonl --resume
    python -m repro sweep svr16 --workloads PR_KR,Camel \\
        --axis memory.l1_mshrs=4,8,16 --axis svr.vector_length=8,32
    python -m repro sweep svr16 --workloads Camel --axis svr.srf_entries=2,8 \\
        --inject 'Camel/*:flaky' --retries 2
    python -m repro overhead 128 8
    python -m repro lint PR_KR kernel.s
    python -m repro lint --all --json
    python -m repro bench
    python -m repro bench --only 'mem.*' --reps 7 --json
    python -m repro sweep svr16 --workloads Camel --axis svr.srf_entries=2,8 \\
        --jobs 2 --journal results/sweep.jsonl --trace results/sweep-trace.json
    python -m repro report --journal results/sweep.jsonl --bench-dir . \\
        -o results/report.html
    python -m repro serve --port 8177 --workers 4 --timeout 300
    python -m repro submit PR_KR svr16 --scale tiny --wait
    python -m repro jobs --url http://127.0.0.1:8177
    python -m repro top --url http://127.0.0.1:8177 --interval 1
    python -m repro top --journal results/sweep.jsonl --once
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.harness import experiments
from repro.harness.report import format_series, format_table
from repro.harness.runner import MAIN_TECHNIQUES, run, technique
from repro.svr.overhead import overhead_breakdown
from repro.workloads.registry import IRREGULAR_WORKLOADS, SPEC_WORKLOADS

FIGURES = {
    "fig1": experiments.fig1,
    "fig3": experiments.fig3,
    "fig11": experiments.fig11,
    "fig12": experiments.fig12,
    "fig13a": experiments.fig13a,
    "fig13b": experiments.fig13b,
    "fig14": experiments.fig14,
    "fig15": experiments.fig15,
    "fig16": experiments.fig16,
    "fig17": experiments.fig17,
    "fig18": experiments.fig18,
    "table1": experiments.table1_quantified,
    "table2": experiments.table2,
}


def _cmd_list(_args) -> int:
    print("Techniques:", ", ".join(MAIN_TECHNIQUES))
    print("\nIrregular workloads (paper suite, 33):")
    print("  " + ", ".join(IRREGULAR_WORKLOADS))
    print("\nSPEC surrogates (Fig 14, 23):")
    print("  " + ", ".join(SPEC_WORKLOADS))
    print("\nFigures:", ", ".join(sorted(FIGURES)))
    return 0


def _make_obs(args):
    """Build a RunObservation when any obs flag is set; else None."""
    jsonl = getattr(args, "jsonl", None)
    chrome = getattr(args, "chrome_trace", None)
    if not (jsonl or chrome):
        return None
    from repro.obs import RunObservation

    return RunObservation(jsonl=jsonl or None, chrome_trace=chrome or None)


def _cmd_run(args) -> int:
    obs = _make_obs(args)
    result = run(args.workload, technique(args.technique), scale=args.scale,
                 obs=obs)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True,
                         default=str))
        _report_obs_outputs(args)
        return 0
    print(f"workload   {result.workload}")
    print(f"technique  {result.technique}")
    print(f"instructions {result.core.instructions}")
    print(f"cycles     {result.core.cycles:.0f}")
    print(f"CPI        {result.cpi:.3f}")
    print(f"IPC        {result.ipc:.3f}")
    print(f"energy     {result.energy_per_instruction_nj:.3f} nJ/instr")
    print(f"DRAM lines {result.dram_lines}")
    print(f"branch acc {result.branch_accuracy:.1%}")
    if result.svr_accuracy is not None:
        print(f"SVR acc    {result.svr_accuracy:.1%}")
        print(f"PRM rounds {result.svr.prm_rounds}")
        print(f"SVI lanes  {result.svr.svi_lanes}")
    print("\nCPI stack:")
    for bucket, value in sorted(result.cpi_stack().items(),
                                key=lambda kv: -kv[1]):
        if value > 0.001:
            print(f"  {bucket:<10} {value:6.3f}")
    _report_obs_outputs(args)
    return 0


def _report_obs_outputs(args) -> None:
    if getattr(args, "chrome_trace", None):
        print(f"chrome trace written to {args.chrome_trace} "
              "(open in https://ui.perfetto.dev)", file=sys.stderr)
    if getattr(args, "jsonl", None):
        print(f"run record appended to {args.jsonl}", file=sys.stderr)


def _render_histogram(name: str, hist: dict, indent: str = "  ") -> str:
    lines = [f"{name}  count={hist['count']} mean={hist['mean']:.2f} "
             f"min={hist['min']} max={hist['max']}"]
    buckets = hist["buckets"]
    peak = max(buckets.values(), default=1)
    for label, count in buckets.items():
        bar = "#" * max(1, round(24 * count / peak))
        lines.append(f"{indent}{label:<16} {count:>8} {bar}")
    return "\n".join(lines)


def _cmd_stats(args) -> int:
    from repro.obs import RunObservation

    obs = RunObservation(jsonl=args.jsonl or None,
                         chrome_trace=args.chrome_trace or None)
    result = run(args.workload, technique(args.technique), scale=args.scale,
                 obs=obs)
    if args.json:
        print(json.dumps(obs.record, indent=2, sort_keys=True, default=str))
        _report_obs_outputs(args)
        return 0
    print(result.summary())
    snapshot = obs.metrics_snapshot()
    counters = {k: v for k, v in snapshot.items() if not isinstance(v, dict)}
    histograms = {k: v for k, v in snapshot.items() if isinstance(v, dict)}
    print("\ncounters:")
    for name, value in counters.items():
        print(f"  {name:<36} {value}")
    print("\nhistograms (log2 buckets):")
    for name, hist in histograms.items():
        print("  " + _render_histogram(name, hist, indent="    "))
    print("\nwall-clock self-profile (seconds):")
    for section, seconds in obs.profile.snapshot().items():
        print(f"  {section:<12} {seconds:.3f}")
    _report_obs_outputs(args)
    return 0


def _build_exec_config(args):
    """Translate the shared resilience flags into an ExecConfig.

    Raises ValueError (from the ExecConfig/FaultSpec validators) on bad
    combinations, e.g. ``--resume`` without ``--journal``.
    """
    from repro.exec import ExecConfig, FaultPlan, parse_fault

    faults = None
    if args.inject:
        faults = FaultPlan(specs=tuple(parse_fault(t) for t in args.inject),
                           seed=args.fault_seed)
    # CLI runs default to telemetry ON (the journald/report pipeline
    # feeds on it); library users opt in via ExecConfig directly, and
    # the bench harness never sets it — keeping the hot path clean.
    from repro.exec import TelemetryConfig

    telemetry = (None if getattr(args, "no_telemetry", False)
                 else TelemetryConfig())
    return ExecConfig(jobs=args.jobs, timeout_s=args.timeout or None,
                      retries=args.retries, journal=args.journal or None,
                      resume=args.resume, faults=faults,
                      telemetry=telemetry)


def _print_failures(failures, command: str) -> None:
    print(f"\n{command}: {len(failures)} failed cell(s):", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)


def _cmd_figure(args) -> int:
    fn = FIGURES.get(args.name)
    if fn is None:
        print(f"unknown figure {args.name!r}; choose from "
              f"{', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.name not in ("table2",):
        kwargs["scale"] = args.scale
    if args.workloads and args.name in ("fig1", "fig11", "fig12", "fig14",
                                        "fig16", "fig17", "fig18",
                                        "table1"):
        kwargs["workloads"] = tuple(args.workloads.split(","))
    log_kwargs = dict(kwargs)
    try:
        exec_config = _build_exec_config(args)
    except ValueError as exc:
        print(f"figure: {exc}", file=sys.stderr)
        return 2
    # Only thread the ExecConfig through when a resilience flag was used;
    # with all defaults the figure functions build an equivalent one.
    flags_used = (args.jobs != 1 or args.timeout or args.retries != 1
                  or args.journal or args.resume or args.inject)
    if flags_used and args.name not in ("table2",):
        kwargs["exec_config"] = exec_config
    # The figure functions report failures on the probe bus; collect the
    # structured records here for the end-of-run summary.
    from repro.exec import RunFailure
    from repro.obs.probes import default_bus

    failures: list[RunFailure] = []
    sub = default_bus().subscribe(
        "exec.failure",
        lambda _name, ev: failures.append(RunFailure(
            key=ev["key"], workload=ev["workload"],
            technique=ev["technique"], kind=ev["kind"],
            message=ev["message"], attempts=ev["attempts"])))
    start = time.perf_counter()
    try:
        out = fn(**kwargs)
    finally:
        sub.cancel()
    elapsed = time.perf_counter() - start
    if args.jsonl:
        from repro.obs import RunLog, make_record

        RunLog(args.jsonl).append(make_record(
            "figure", name=args.name, arguments=log_kwargs, output=out,
            failures=[f.to_dict() for f in failures],
            profile={"figure": round(elapsed, 6)}))
    first = next(iter(out.values()))
    if isinstance(first, dict):
        inner = next(iter(first.values()))
        if isinstance(inner, dict):   # fig3-style nesting
            flat = {}
            for group, sub in out.items():
                for key, stack in sub.items():
                    flat[f"{group}/{key}"] = stack
            out = flat
        out = {row: {str(k): v for k, v in cols.items()}
               for row, cols in out.items()}
        print(format_table(out, title=args.name))
    else:
        print(format_series(out, title=args.name))
    if failures:
        _print_failures(failures, "figure")
        return 1
    return 0


def _parse_axis(text: str):
    """Parse ``--axis PATH=V1,V2,...`` (values parsed as JSON scalars,
    falling back to bare strings)."""
    from repro.harness.sweeps import SweepAxis

    path, sep, values_text = text.partition("=")
    if not sep or not path or not values_text:
        raise ValueError(
            f"--axis expects PATH=V1,V2,... got {text!r}")
    values = []
    for token in values_text.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return SweepAxis(path, values)


def _cmd_sweep(args) -> int:
    from repro.harness.sweeps import render_sweep, sweep_report

    try:
        axes = [_parse_axis(a) for a in args.axis]
        exec_config = _build_exec_config(args)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    workloads = tuple(w for w in args.workloads.split(",") if w)
    if not workloads:
        print("sweep: --workloads needs at least one workload name",
              file=sys.stderr)
        return 2
    try:
        report = sweep_report(
            workloads, args.base, axes, metric=args.metric,
            scale=args.scale, normalise=not args.no_normalise,
            exec_config=exec_config)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if args.jsonl:
        from repro.obs import RunLog, make_record

        RunLog(args.jsonl).append(make_record(
            "sweep", base=args.base, metric=args.metric, scale=args.scale,
            normalise=not args.no_normalise, workloads=list(workloads),
            axes=[{"path": a.path, "values": list(a.values)} for a in axes],
            values=[{"combo": list(combo), "value": value}
                    for combo, value in report.values.items()],
            failures=[f.to_dict() for f in report.failures]))
    if args.json:
        print(json.dumps(
            {"base": args.base, "metric": args.metric, "scale": args.scale,
             "normalise": not args.no_normalise,
             "workloads": list(workloads),
             "axes": [{"path": a.path, "values": list(a.values)}
                      for a in axes],
             "values": [{"combo": list(combo), "value": value}
                        for combo, value in report.values.items()],
             "failures": [f.to_dict() for f in report.failures]},
            indent=2, sort_keys=True, default=str))
    else:
        print(render_sweep(report.values, axes, failures=report.failures))
        if report.exec_report is not None:
            print("\n" + report.exec_report.summary().splitlines()[0],
                  file=sys.stderr)
            resources = report.resources()
            if resources.get("cells"):
                print(f"telemetry: {resources['cells']} cell(s), "
                      f"cpu {resources['cpu_s']:.2f}s, "
                      f"max rss {resources['max_rss_kib']} KiB, "
                      f"{len(resources['pids'])} worker pid(s)",
                      file=sys.stderr)
    if args.trace:
        from repro.obs import write_trace

        write_trace(report.trace(), args.trace)
        print(f"merged exec trace written to {args.trace} "
              "(open in https://ui.perfetto.dev)", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_report(args) -> int:
    from repro.harness.dashboard import generate_report

    if not (args.journal or args.runlog or args.bench_dir):
        print("report: nothing to report on — give --journal, --runlog "
              "and/or --bench-dir", file=sys.stderr)
        return 2
    out, data = generate_report(
        journals=args.journal, runlogs=args.runlog,
        bench_dir=args.bench_dir or None, out_path=args.out)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        cells = data["cells"]
        ok = sum(1 for c in cells if c["status"] == "ok")
        print(f"{len(cells)} cell(s): {ok} ok, {len(cells) - ok} failed; "
              f"{data['retries']} retry, {data['timeouts']} timeout "
              "event(s)")
        print(f"{len(data['runlogs'])} run log record(s), "
              f"{len(data['bench'])} bench snapshot(s), "
              f"{len(data['metrics'])} merged metric(s)")
    print(f"report written to {out}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from repro.harness.trace import capture, render, summarize

    records = capture(args.workload, args.technique, scale=args.scale,
                      warmup=args.warmup, count=args.count)
    print(render(records))
    summary = summarize(records)
    print("\nsummary:")
    for key, value in summary.items():
        print(f"  {key:<18} {value:.2f}")
    return 0


def _cmd_overhead(args) -> int:
    breakdown = overhead_breakdown(args.n, args.k)
    rows = {
        "stride detector": breakdown.stride_detector,
        "taint tracker": breakdown.taint_tracker,
        "HSLR": breakdown.hslr,
        "SRF": breakdown.srf,
        "LC": breakdown.lc,
        "LBD": breakdown.lbd,
        "scoreboard counters": breakdown.scoreboard,
        "L1 prefetch tags": breakdown.l1_prefetch_tags,
    }
    print(f"Table II: SVR hardware overhead (N={args.n}, K={args.k})")
    for name, bits in rows.items():
        print(f"  {name:<20} {bits:>7} bits")
    print(f"  {'total':<20} {breakdown.total_bits:>7} bits "
          f"= {breakdown.total_kib:.2f} KiB")
    return 0


def _lint_one(target: str, scale: str):
    """Lint one CLI target (workload name or ``.s`` file) -> LintReport."""
    import os

    from repro.analysis import Diagnostic, LintReport, Severity, lint_program
    from repro.isa.assembler import AssemblerError, assemble
    from repro.workloads.registry import build_workload

    looks_like_file = (target.endswith(".s") or os.path.sep in target
                       or os.path.isfile(target))
    if looks_like_file:
        name = os.path.basename(target)
        try:
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            program = assemble(source, name=name)
        except AssemblerError as exc:
            report = LintReport(name=name)
            report.diagnostics.append(Diagnostic(
                Severity.ERROR, "E002", exc.line_no, str(exc)))
            return report
        return lint_program(program, name=name)
    workload = build_workload(target, scale=scale)
    return lint_program(workload.program, name=target)


def _cmd_lint(args) -> int:
    from repro.analysis import format_diagnostics, format_report
    from repro.workloads.registry import workload_names

    targets = list(args.targets)
    if args.all:
        targets += [n for n in
                    workload_names("irregular") + workload_names("spec")
                    if n not in targets]
    if not targets:
        print("lint: no targets (give workload names, .s files or --all)",
              file=sys.stderr)
        return 2
    try:
        reports = [_lint_one(t, args.scale) for t in targets]
    except (OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    ok = all(report.ok for report in reports)
    n_err = sum(len(r.errors) for r in reports)
    n_warn = sum(len(r.warnings) for r in reports)
    if args.jsonl:
        from repro.obs import RunLog, make_record

        RunLog(args.jsonl).append(make_record(
            "lint", ok=ok, errors=n_err, warnings=n_warn,
            reports=[r.to_dict() for r in reports]))
    if args.json:
        print(json.dumps(
            {"ok": ok, "errors": n_err, "warnings": n_warn,
             "reports": [r.to_dict() for r in reports]},
            indent=2, sort_keys=True))
        _report_obs_outputs(args)
        return 0 if ok else 1
    verbose = args.verbose or not args.all
    for report in reports:
        text = (format_report(report, verbose=True) if verbose
                else format_diagnostics(report))
        print(text)
        if verbose:
            print()
    print(f"linted {len(reports)} target(s): "
          f"{n_err} error(s), {n_warn} warning(s)")
    _report_obs_outputs(args)
    return 0 if ok else 1


def _analyze_one(target: str, args) -> dict:
    """Analyze one CLI target; returns a result bundle for rendering.

    ``plan`` is always present; ``oracle`` only with ``--oracle`` on a
    registered workload (assembly files carry no memory image to run);
    ``drift`` lists deviations from the pinned expectation with ``--check``.
    """
    import os

    from repro.analysis import build_plan, oracle_check
    from repro.isa.assembler import assemble
    from repro.workloads.expectations import plan_expectation
    from repro.workloads.registry import build_workload

    looks_like_file = (target.endswith(".s") or os.path.sep in target
                       or os.path.isfile(target))
    memory = None
    if looks_like_file:
        name = os.path.basename(target)
        with open(target, encoding="utf-8") as fh:
            program = assemble(fh.read(), name=name)
    else:
        name = target
        workload = build_workload(target, scale=args.scale)
        program = workload.program
        memory = workload.memory
    plan = build_plan(program, name=name, vector_length=args.vector_length)

    result: dict = {"name": name, "plan": plan, "oracle": None, "drift": []}
    if args.oracle:
        if memory is None:
            result["drift"].append(
                f"{name}: --oracle needs a registered workload "
                "(assembly files have no memory image)")
        else:
            result["oracle"] = oracle_check(
                program, memory, plan, max_steps=args.steps)
    if args.check:
        expect = plan_expectation(name)
        if expect is None:
            result["drift"].append(f"{name}: no pinned plan expectation")
        elif expect != plan.summary:
            result["drift"].append(
                f"{name}: plan drifted from pinned expectation: "
                f"pinned {expect} != computed {plan.summary}")
    return result


def _cmd_analyze(args) -> int:
    from repro.analysis import format_oracle_report, format_plan
    from repro.workloads.registry import workload_names

    targets = list(args.targets)
    if args.all:
        targets += [n for n in
                    workload_names("irregular") + workload_names("spec")
                    if n not in targets]
    if not targets:
        print("analyze: no targets (give workload names, .s files or "
              "--all)", file=sys.stderr)
        return 2
    try:
        results = [_analyze_one(t, args) for t in targets]
    except (OSError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    drift = [line for r in results for line in r["drift"]]
    oracle_ok = all(r["oracle"] is None or r["oracle"].ok for r in results)
    ok = oracle_ok and not drift
    payload = {
        "ok": ok,
        "drift": drift,
        "reports": [
            {"name": r["name"],
             "plan": r["plan"].to_dict(),
             "fingerprint": r["plan"].fingerprint(),
             "summary": [[s[0], s[1], list(s[2]), list(s[3])]
                         for s in r["plan"].summary],
             "oracle": None if r["oracle"] is None
             else r["oracle"].to_dict()}
            for r in results
        ],
    }
    if args.jsonl:
        from repro.obs import RunLog, make_record

        RunLog(args.jsonl).append(make_record("analyze", **payload))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if ok else 1
    for r in results:
        print(format_plan(r["plan"]))
        if r["oracle"] is not None:
            print(format_oracle_report(r["oracle"]))
        print()
    for line in drift:
        print(f"analyze: {line}", file=sys.stderr)
    n_oracle = sum(1 for r in results if r["oracle"] is not None)
    print(f"analyzed {len(results)} target(s), "
          f"{n_oracle} oracle-validated: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _render_bench_table(summary: dict) -> str:
    benches = summary["benchmarks"]
    width = max(len(name) for name in benches)
    lines = [f"self-benchmark ({summary['repetitions']} repetitions each):"]
    for name, entry in benches.items():
        if "error" in entry:
            lines.append(f"  {name:<{width}}  ERROR {entry['error']}")
            continue
        thr = entry["throughput"]
        lines.append(
            f"  {name:<{width}}  {thr['median']:>12.1f} ±{thr['mad']:>10.1f}"
            f" {entry['unit']}/s   wall {entry['wall_s']['median']:.3f}s")
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    from repro.bench import run_benchmarks, write_artifact

    try:
        summary = run_benchmarks(tuple(args.only), args.reps)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_artifact(summary, args.dir)
    if args.json:
        print(json.dumps({"artifact": str(path), **summary}, indent=2,
                         sort_keys=True))
    else:
        print(_render_bench_table(summary))
    print(f"bench artifact written to {path}", file=sys.stderr)
    errors = [name for name, entry in summary["benchmarks"].items()
              if "error" in entry]
    if errors:
        print(f"bench: {len(errors)} benchmark(s) failed to run: "
              f"{', '.join(errors)}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.exec import FaultPlan, parse_fault
    from repro.serve import ReproServer, ServeConfig

    faults = None
    if args.inject:
        faults = FaultPlan(specs=tuple(parse_fault(t) for t in args.inject),
                           seed=args.fault_seed)
    try:
        config = ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            queue_limit=args.queue_limit,
            timeout_s=args.timeout or None, retries=args.retries,
            store_dir=args.store, ledger=args.ledger or None,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            drain_timeout_s=args.drain_timeout, faults=faults)
        server = ReproServer(config)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    def _on_signal(signum, _frame) -> None:
        server.request_drain(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.start()
    print(f"repro serve listening on http://{config.host}:{server.port} "
          f"({config.workers} warm worker(s), queue limit "
          f"{config.queue_limit})", file=sys.stderr)
    while not server.wait(timeout=0.5):
        pass
    health = server.health()
    print(f"repro serve drained ({server._drain_reason or 'done'}): "
          f"{health['store']['entries']} stored result(s), "
          f"{health['worker_restarts']} worker restart(s)",
          file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient(args.url)
    try:
        job = client.submit(
            args.workload, args.technique, scale=args.scale,
            warmup=args.warmup if args.warmup >= 0 else None,
            measure=args.measure if args.measure >= 0 else None)
        payload: dict = {"job": job}
        if args.wait and job["state"] not in ("ok", "failed", "quarantined"):
            payload = client.wait(job["job_id"], timeout_s=args.wait_timeout)
    except ServeClientError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    job = payload["job"]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        line = (f"{job['job_id']}  {job['workload']}/{job['technique']} "
                f"[{job['scale']}]  {job['state']}")
        if job.get("cached"):
            line += "  (cache hit)"
        print(line)
        if job.get("failure"):
            print(f"  failure: {job['failure']['kind']} — "
                  f"{job['failure']['message']}")
        result = payload.get("result")
        if result:
            print(f"  ipc {result['ipc']:.3f}  cycles "
                  f"{result['cycles']:.0f}  key {job['key']}")
    return 0 if job["state"] in ("ok", "queued", "running") else 1


def _cmd_jobs(args) -> int:
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient(args.url)
    try:
        health = client.health()
        jobs = client.jobs()
    except ServeClientError as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"health": health, "jobs": jobs}, indent=2,
                         sort_keys=True, default=str))
        return 0
    print(f"server {args.url}: {health['status']}, "
          f"uptime {health['uptime_s']:.0f}s, "
          f"queue {health['queue_depth']}, "
          f"inflight {health['inflight']}, "
          f"restarts {health['worker_restarts']}, "
          f"store {health['store']['entries']} entries")
    if health["breaker"]:
        for key, entry in health["breaker"].items():
            print(f"  breaker {key}: {entry['state']} "
                  f"({entry['opens']} open(s))")
    from repro.serve.top import frame_fraction, progress_bar

    for job in jobs:
        flags = "".join(
            f" ({name})" for name, on in
            (("cache hit", job.get("cached")),
             ("coalesced", job.get("coalesced"))) if on)
        line = (f"  {job['job_id']:<8} {job['workload']}/{job['technique']} "
                f"[{job['scale']}]  {job['state']}{flags}")
        if job.get("wait_s") is not None:
            line += f"  wait {job['wait_s']:.2f}s"
        frame = job.get("progress")
        if job["state"] == "running" and frame:
            line += (f"  {progress_bar(frame_fraction(frame), width=12)} "
                     f"cycles {frame.get('cycle', 0):.0f}  "
                     f"ipc {frame.get('ipc', 0):.2f}")
        print(line)
    return 0


def _cmd_top(args) -> int:
    from repro.serve.top import run_top

    if args.journal:
        source: dict = {"journal": args.journal}
    else:
        source = {"url": args.url}
    try:
        return run_top(interval_s=args.interval, once=args.once,
                       out=sys.stdout, **source)
    except ValueError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scalar Vector Runahead (MICRO 2024) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads, techniques and figures")

    def _obs_flags(p) -> None:
        p.add_argument("--json", action="store_true",
                       help="print machine-readable JSON instead of text")
        p.add_argument("--jsonl", default="", metavar="PATH",
                       help="append a structured run record to PATH")
        p.add_argument("--chrome-trace", default="", metavar="PATH",
                       help="export a Perfetto-viewable Chrome trace")

    run_p = sub.add_parser("run", help="simulate one workload/technique")
    run_p.add_argument("workload")
    run_p.add_argument("technique")
    run_p.add_argument("--scale", default="bench",
                       choices=("tiny", "bench", "default"))
    _obs_flags(run_p)

    stats_p = sub.add_parser(
        "stats", help="instrumented run: metric registry + self-profile")
    stats_p.add_argument("workload")
    stats_p.add_argument("technique", nargs="?", default="svr16")
    stats_p.add_argument("--scale", default="bench",
                         choices=("tiny", "bench", "default"))
    _obs_flags(stats_p)

    def _exec_flags(p) -> None:
        """Resilient-executor flags shared by ``figure`` and ``sweep``."""
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run cells in N fault-isolated worker processes")
        p.add_argument("--timeout", type=float, default=0.0,
                       metavar="SECONDS",
                       help="wall-clock kill fence per cell attempt")
        p.add_argument("--retries", type=int, default=1, metavar="N",
                       help="extra attempts for transient (crash/hang) "
                            "failures")
        p.add_argument("--journal", default="", metavar="PATH",
                       help="JSONL checkpoint of completed cells")
        p.add_argument("--resume", action="store_true",
                       help="serve journaled successes, re-run only the "
                            "rest (requires --journal)")
        p.add_argument("--inject", action="append", default=[],
                       metavar="WORKLOAD/TECH:KIND[:TIMES]",
                       help="inject a deterministic fault (kind: crash, "
                            "hang, flaky); repeatable")
        p.add_argument("--fault-seed", type=int, default=0, metavar="SEED",
                       help="seed for rate-based fault selection")
        p.add_argument("--no-telemetry", action="store_true",
                       help="skip per-cell span/metric/rusage capture "
                            "(on by default for CLI runs)")

    fig_p = sub.add_parser("figure", help="regenerate one paper figure")
    fig_p.add_argument("name")
    fig_p.add_argument("--scale", default="bench",
                       choices=("tiny", "bench", "default"))
    fig_p.add_argument("--workloads", default="",
                       help="comma-separated subset")
    fig_p.add_argument("--jsonl", default="", metavar="PATH",
                       help="append the figure output as a JSONL record")
    _exec_flags(fig_p)

    sweep_p = sub.add_parser(
        "sweep", help="generic parameter sweep over config axes")
    sweep_p.add_argument("base",
                         help="base technique (inorder, ooo, imp, svr16, "
                              "svr64, vr64, ...)")
    sweep_p.add_argument("--workloads", required=True,
                         help="comma-separated workload names")
    sweep_p.add_argument("--axis", action="append", default=[],
                         required=True, metavar="PATH=V1,V2,...",
                         help="swept config path (memory.*, svr.*, "
                              "core_config.* or top-level); repeatable")
    sweep_p.add_argument("--metric", default="ipc",
                         help="SimResult scalar to aggregate (default ipc)")
    sweep_p.add_argument("--scale", default="bench",
                         choices=("tiny", "bench", "default"))
    sweep_p.add_argument("--no-normalise", action="store_true",
                         help="report raw values instead of ratios to the "
                              "in-order baseline")
    sweep_p.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of text")
    sweep_p.add_argument("--jsonl", default="", metavar="PATH",
                         help="append a structured sweep record to PATH")
    sweep_p.add_argument("--trace", default="", metavar="PATH",
                         help="write the merged multi-process Perfetto "
                              "trace (one track per worker pid)")
    _exec_flags(sweep_p)

    trace_p = sub.add_parser("trace", help="instruction-level timeline")
    trace_p.add_argument("workload")
    trace_p.add_argument("technique", nargs="?", default="svr16")
    trace_p.add_argument("--scale", default="tiny",
                         choices=("tiny", "bench", "default"))
    trace_p.add_argument("--warmup", type=int, default=800)
    trace_p.add_argument("--count", type=int, default=48)

    lint_p = sub.add_parser(
        "lint", help="static analysis: diagnostics + SVR chain estimates")
    lint_p.add_argument("targets", nargs="*", metavar="TARGET",
                        help="workload names or assembly (.s) files")
    lint_p.add_argument("--all", action="store_true",
                        help="lint every registered workload")
    lint_p.add_argument("--scale", default="tiny",
                        choices=("tiny", "bench", "default"))
    lint_p.add_argument("-v", "--verbose", action="store_true",
                        help="print load/chain tables even with --all")
    lint_p.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")
    lint_p.add_argument("--jsonl", default="", metavar="PATH",
                        help="append a structured lint record to PATH")

    ana_p = sub.add_parser(
        "analyze", help="memory-dependence & vectorization-legality plans "
                        "with an optional dynamic oracle gate")
    ana_p.add_argument("targets", nargs="*", metavar="TARGET",
                       help="workload names or assembly (.s) files")
    ana_p.add_argument("--all", action="store_true",
                       help="analyze every registered workload")
    ana_p.add_argument("--scale", default="tiny",
                       choices=("tiny", "bench", "default"))
    ana_p.add_argument("--vector-length", type=int, default=16, metavar="VL",
                       help="lanes assumed by the legality analysis "
                            "(default 16)")
    ana_p.add_argument("--oracle", action="store_true",
                       help="run the workload and cross-validate every "
                            "static claim against observed behaviour")
    ana_p.add_argument("--steps", type=int, default=400_000, metavar="N",
                       help="oracle run step budget (default 400000)")
    ana_p.add_argument("--check", action="store_true",
                       help="fail if a plan drifts from the pinned "
                            "expectation in workloads/expectations.py")
    ana_p.add_argument("--json", action="store_true",
                       help="print machine-readable JSON instead of text")
    ana_p.add_argument("--jsonl", default="", metavar="PATH",
                       help="append a structured analyze record to PATH")

    bench_p = sub.add_parser(
        "bench", help="microbenchmark the simulator's hot paths; write a "
                      "BENCH_*.json trajectory artifact")
    bench_p.add_argument("--only", action="append", default=[],
                         metavar="PATTERN",
                         help="run only benchmarks matching this fnmatch "
                              "pattern (repeatable)")
    bench_p.add_argument("--reps", type=int, default=5, metavar="N",
                         help="repetitions per benchmark (default: 5; "
                              "minimum 2)")
    bench_p.add_argument("--dir", default=".", metavar="PATH",
                         help="trajectory directory (default: repo root)")
    bench_p.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of text")

    report_p = sub.add_parser(
        "report", help="self-contained HTML dashboard from journals, "
                       "run logs and BENCH_*.json files")
    report_p.add_argument("--journal", action="append", default=[],
                          metavar="PATH",
                          help="exec journal JSONL (repeatable)")
    report_p.add_argument("--runlog", action="append", default=[],
                          metavar="PATH",
                          help="run-log JSONL (repeatable)")
    report_p.add_argument("--bench-dir", default="", metavar="PATH",
                          help="directory holding BENCH_*.json "
                               "trajectory files")
    report_p.add_argument("-o", "--out", default="results/report.html",
                          metavar="PATH",
                          help="output HTML path "
                               "(default results/report.html)")
    report_p.add_argument("--json", action="store_true",
                          help="also print the report data as JSON")

    serve_p = sub.add_parser(
        "serve", help="long-lived simulation service (warm workers, "
                      "bounded queue, breakers, result cache)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8177,
                         help="listen port (0 = ephemeral; default 8177)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="warm worker processes (default 2)")
    serve_p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                         help="distinct queued cells before 429 "
                              "(default 32)")
    serve_p.add_argument("--timeout", type=float, default=120.0,
                         metavar="SECONDS",
                         help="wall-clock hang fence per cell attempt "
                              "(0 = none)")
    serve_p.add_argument("--retries", type=int, default=1, metavar="N",
                         help="extra attempts for crash/hang verdicts")
    serve_p.add_argument("--store", default="results/store", metavar="DIR",
                         help="content-addressed result store directory")
    serve_p.add_argument("--ledger", default="results/serve-ledger.jsonl",
                         metavar="PATH",
                         help="JSONL service ledger ('' disables)")
    serve_p.add_argument("--breaker-threshold", type=int, default=3,
                         metavar="N",
                         help="consecutive crash/hang verdicts that open "
                              "a config's circuit")
    serve_p.add_argument("--breaker-cooldown", type=float, default=300.0,
                         metavar="SECONDS",
                         help="open-circuit cooldown before one trial job")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="graceful-drain budget on shutdown")
    serve_p.add_argument("--inject", action="append", default=[],
                         metavar="WORKLOAD/TECH:KIND[:TIMES]",
                         help="inject deterministic faults into workers "
                              "(drills, tests); repeatable")
    serve_p.add_argument("--fault-seed", type=int, default=0, metavar="SEED")

    submit_p = sub.add_parser(
        "submit", help="submit one cell to a running repro serve")
    submit_p.add_argument("workload")
    submit_p.add_argument("technique")
    submit_p.add_argument("--url", default="http://127.0.0.1:8177",
                          help="server base URL")
    submit_p.add_argument("--scale", default="bench",
                          choices=("tiny", "bench", "default"))
    submit_p.add_argument("--warmup", type=int, default=-1, metavar="N",
                          help="override warmup window (-1 = default)")
    submit_p.add_argument("--measure", type=int, default=-1, metavar="N",
                          help="override measure window (-1 = default)")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job reaches a terminal "
                               "verdict")
    submit_p.add_argument("--wait-timeout", type=float, default=300.0,
                          metavar="SECONDS")
    submit_p.add_argument("--json", action="store_true",
                          help="print machine-readable JSON instead of text")

    jobs_p = sub.add_parser(
        "jobs", help="list a running repro serve's jobs and health")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8177",
                        help="server base URL")
    jobs_p.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")

    top_p = sub.add_parser(
        "top", help="self-refreshing terminal view of live simulation "
                    "(server workers/queue/progress, or a local journal)")
    top_p.add_argument("--url", default="http://127.0.0.1:8177",
                       help="server base URL")
    top_p.add_argument("--journal", default="", metavar="PATH",
                       help="render a local exec/sweep journal instead "
                            "of a server")
    top_p.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh cadence (default 2s)")
    top_p.add_argument("--once", action="store_true",
                       help="print one frame without ANSI refresh codes "
                            "and exit")

    ovh_p = sub.add_parser("overhead", help="Table II budget")
    ovh_p.add_argument("n", nargs="?", type=int, default=16)
    ovh_p.add_argument("k", nargs="?", type=int, default=8)

    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "stats": _cmd_stats,
                "figure": _cmd_figure, "sweep": _cmd_sweep,
                "trace": _cmd_trace, "overhead": _cmd_overhead,
                "lint": _cmd_lint, "analyze": _cmd_analyze,
                "bench": _cmd_bench, "report": _cmd_report,
                "serve": _cmd_serve, "submit": _cmd_submit,
                "jobs": _cmd_jobs, "top": _cmd_top}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

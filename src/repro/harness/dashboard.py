"""``repro report``: a self-contained HTML dashboard from telemetry.

Input is whatever artifacts a run left behind — resume journals (cell
records carrying the telemetry payloads of :mod:`repro.exec.telemetry`),
JSONL run logs, and ``BENCH_*.json`` trajectory files.
:func:`build_report_data` folds them into one JSON-ready dict;
:func:`render_html` turns that into a single static HTML file with no
external dependencies (inline CSS, inline SVG, light/dark via
``prefers-color-scheme``).  Every chart has a plain-table fallback right
next to it, so the numbers survive printing, forced-colors modes and
screen readers.

Sections: stat tiles (cells / failures / CPU / RSS), a per-worker sweep
timeline, per-cell wall/CPU/RSS bars, the retry/failure taxonomy,
aggregated metric tables, and the bench throughput trajectory as
single-hue sparklines (one per benchmark — more series than a
categorical palette holds, so identity comes from position, not hue).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.exec.journal import RunJournal
from repro.exec.telemetry import aggregate_metrics, resource_summary

# Chart palette (see docs/observability.md): one accent hue for
# magnitude, status colors reserved for ok/failed, text never in series
# color.  Light/dark pairs resolve via CSS custom properties.
_CSS = """
:root {
  --surface: #fcfcfb; --panel: #ffffff; --text: #0b0b0b;
  --secondary: #52514e; --muted: #898781; --grid: #e1e0d9;
  --accent: #2a78d6; --accent-soft: #9dc4ee;
  --good: #0ca30c; --critical: #d03b3b; --warn: #b58419;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #222221; --text: #ffffff;
    --secondary: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --accent: #3987e5; --accent-soft: #2a4a6e;
    --good: #3fae3f; --critical: #e06262; --warn: #cfa040;
  }
}
* { box-sizing: border-box; }
body { background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px; max-width: 1080px; margin-inline: auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--panel); border: 1px solid var(--grid);
  border-radius: 8px; padding: 10px 16px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .l { color: var(--secondary); font-size: 12px; }
.tile.bad .v { color: var(--critical); }
table { border-collapse: collapse; width: 100%; margin: 8px 0;
  font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--secondary); font-weight: 500;
  font-size: 12px; border-bottom: 1px solid var(--grid);
  padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td.num, th.num { text-align: right; }
.status-ok { color: var(--good); }
.status-failed { color: var(--critical); }
svg { display: block; }
svg text { fill: var(--secondary); font-size: 11px; }
.bar { fill: var(--accent); }
.bar-failed { fill: var(--critical); }
.spark { stroke: var(--accent); stroke-width: 2; fill: none;
  stroke-linejoin: round; stroke-linecap: round; }
.gridline { stroke: var(--grid); stroke-width: 1; }
.lane-label { fill: var(--muted); }
details > summary { cursor: pointer; color: var(--secondary);
  font-size: 12px; margin: 4px 0; }
code { color: var(--secondary); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


# ---------------------------------------------------------------------------
# Data assembly.
# ---------------------------------------------------------------------------

def build_report_data(journals: Sequence[str | Path] = (),
                      runlogs: Sequence[str | Path] = (),
                      bench_dir: str | Path | None = None,
                      ) -> dict[str, Any]:
    """Fold journals, run logs and bench trajectory files into the one
    dict :func:`render_html` renders (and ``--json`` dumps)."""
    cells: dict[str, dict[str, Any]] = {}
    events: list[dict[str, Any]] = []
    serve_events: list[dict[str, Any]] = []
    for path in journals:
        for record in RunJournal(path).records():
            kind = record.get("event")
            if kind == "cell" and "key" in record:
                cells[record["key"]] = record   # latest record wins
            elif kind in ("retry", "timeout"):
                events.append(record)
            elif isinstance(kind, str) and kind.startswith("serve."):
                serve_events.append(record)

    cell_rows = []
    for record in sorted(cells.values(), key=lambda r: r["key"]):
        telemetry = record.get("telemetry") or {}
        spans = telemetry.get("spans") or []
        cell_span = next((s for s in spans if s.get("name") == "cell"),
                         None)
        row = {
            "key": record["key"],
            "workload": record.get("workload", "?"),
            "technique": record.get("technique", "?"),
            "status": record.get("status", "?"),
            "attempts": record.get("attempts", 1),
            "elapsed_s": record.get("elapsed_s", 0.0),
            "pid": telemetry.get("pid"),
            "cpu_s": telemetry.get("cpu_s"),
            "max_rss_kib": telemetry.get("max_rss_kib"),
            "failure_kind": (record.get("failure") or {}).get("kind"),
        }
        if cell_span and cell_span.get("end") is not None:
            row["t0"] = cell_span["start"]
            row["t1"] = cell_span["end"]
        cell_rows.append(row)

    failure_taxonomy: dict[str, int] = {}
    for row in cell_rows:
        if row["status"] == "failed":
            kind = row["failure_kind"] or "unknown"
            failure_taxonomy[kind] = failure_taxonomy.get(kind, 0) + 1
    retry_count = sum(1 for e in events if e.get("event") == "retry")
    timeout_count = sum(1 for e in events if e.get("event") == "timeout")

    # The executor's own aggregation, over the same key-ordered payloads
    # ExecReport merges, so a report equals the run that wrote it.
    payloads = [cells[key]["telemetry"] for key in sorted(cells)
                if cells[key].get("telemetry")]

    runlog_rows = []
    lint_rows: dict[str, dict[str, Any]] = {}
    plan_rows: dict[str, dict[str, Any]] = {}
    for path in runlogs:
        for record in RunJournal(path).records():
            kind = record.get("kind")
            if kind == "lint":
                # Latest lint record per target wins.
                for report in record.get("reports") or []:
                    name = report.get("name", "?")
                    lint_rows[name] = {
                        "name": name,
                        "ok": bool(report.get("ok")),
                        "errors": report.get("errors", 0),
                        "warnings": report.get("warnings", 0),
                    }
                continue
            if kind == "analyze":
                for report in record.get("reports") or []:
                    name = report.get("name", "?")
                    oracle = report.get("oracle")
                    plan_rows[name] = {
                        "name": name,
                        "loops": [
                            {"header": s[0], "verdict": s[1],
                             "guards": list(s[2]), "reasons": list(s[3])}
                            for s in report.get("summary") or []
                            if isinstance(s, (list, tuple)) and len(s) == 4],
                        "oracle_ok": (None if oracle is None
                                      else bool(oracle.get("ok"))),
                        "violations": (0 if oracle is None
                                       else len(oracle.get("violations")
                                                or [])),
                    }
                continue
            if kind != "run":
                continue
            profile = record.get("profile") or {}
            runlog_rows.append({
                "timestamp": record.get("timestamp", ""),
                "pid": record.get("pid"),
                "seq": record.get("seq"),
                "workload": record.get("workload", "?"),
                "technique": record.get("technique", "?"),
                "measure_s": profile.get("measure"),
            })
    runlog_rows.sort(key=lambda r: (r["timestamp"], r.get("pid") or 0,
                                    r.get("seq") or 0))

    return {
        "cells": cell_rows,
        "events": events,
        "failure_taxonomy": failure_taxonomy,
        "retries": retry_count,
        "timeouts": timeout_count,
        "metrics": aggregate_metrics(payloads),
        "resources": resource_summary(payloads),
        "runlogs": runlog_rows,
        "lints": sorted(lint_rows.values(), key=lambda r: r["name"]),
        "plans": sorted(plan_rows.values(), key=lambda r: r["name"]),
        "bench": _load_bench_trajectory(bench_dir),
        "service": _build_service_data(serve_events),
    }


def _build_service_data(serve_events: list[dict[str, Any]],
                        ) -> dict[str, Any]:
    """Fold a serve ledger's ``serve.*`` marker records into the
    dashboard's service section (empty dict when nothing served)."""
    jobs = [e for e in serve_events if e.get("event") == "serve.job"]
    breakers = [e for e in serve_events
                if e.get("event") == "serve.breaker"]
    drains = [e for e in serve_events if e.get("event") == "serve.drain"]
    samples = [e for e in serve_events
               if e.get("event") == "serve.sample"][-240:]
    if not jobs and not breakers and not drains and not samples:
        return {}
    by_state: dict[str, int] = {}
    waits = [e["wait_s"] for e in jobs
             if isinstance(e.get("wait_s"), (int, float))]
    runs = [e["run_s"] for e in jobs
            if isinstance(e.get("run_s"), (int, float))]
    for event in jobs:
        state = event.get("state", "?")
        by_state[state] = by_state.get(state, 0) + 1
    return {
        "jobs": len(jobs),
        "by_state": by_state,
        "cache_hits": sum(1 for e in jobs if e.get("cached")),
        "coalesced": sum(1 for e in jobs if e.get("coalesced")),
        "wait_s_mean": (round(sum(waits) / len(waits), 6)
                        if waits else None),
        "wait_s_max": round(max(waits), 6) if waits else None,
        "run_s_mean": (round(sum(runs) / len(runs), 6)
                       if runs else None),
        "breaker_opens": len(breakers),
        "breaker_keys": sorted({e.get("key", "?") for e in breakers}),
        "drains": [{"reason": e.get("reason", "?"),
                    "restarts": e.get("restarts", 0)} for e in drains],
        "samples": [{k: s.get(k, 0) for k in
                     ("queue_depth", "inflight", "busy_workers",
                      "jobs_ok", "jobs_failed", "progress_frames")}
                    for s in samples],
    }


def _load_bench_trajectory(bench_dir: str | Path | None,
                           ) -> list[dict[str, Any]]:
    """``BENCH_*.json`` snapshots in timestamp order, reduced to the
    median throughput per benchmark."""
    if bench_dir is None:
        return []
    root = Path(bench_dir)
    snapshots = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        benches = data.get("benchmarks")
        if not isinstance(benches, dict):
            continue
        point = {"file": path.name,
                 "timestamp": data.get("timestamp", ""),
                 "throughput": {}}
        for name, bench in benches.items():
            median = (bench.get("throughput") or {}).get("median")
            if isinstance(median, (int, float)):
                point["throughput"][name] = median
        snapshots.append(point)
    snapshots.sort(key=lambda p: (p["timestamp"], p["file"]))
    return snapshots


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _fmt_rss(kib: Any) -> str:
    if not isinstance(kib, (int, float)) or kib <= 0:
        return "—"
    return f"{kib / 1024:.1f} MiB"


def _tile(label: str, value: str, bad: bool = False) -> str:
    cls = "tile bad" if bad else "tile"
    return (f'<div class="{cls}"><div class="v">{_esc(value)}</div>'
            f'<div class="l">{_esc(label)}</div></div>')


def _timeline_svg(cells: list[dict[str, Any]]) -> str:
    """Per-worker gantt: one row per cell, grouped by pid, bar spanning
    the cell's wall-clock window.  Magnitude rides the shared x scale;
    status is the only color split (accent = ok, critical = failed)."""
    timed = [c for c in cells if "t0" in c and "t1" in c]
    if not timed:
        return '<p class="sub">No span data in the journals.</p>'
    t_min = min(c["t0"] for c in timed)
    t_max = max(c["t1"] for c in timed)
    span = max(t_max - t_min, 1e-9)
    timed.sort(key=lambda c: (c.get("pid") or 0, c["t0"]))
    row_h, left, width = 22, 230, 720
    height = len(timed) * row_h + 26
    parts = [f'<svg viewBox="0 0 {left + width + 60} {height}" '
             f'role="img" aria-label="sweep timeline">']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * width
        parts.append(f'<line class="gridline" x1="{x:.1f}" y1="0" '
                     f'x2="{x:.1f}" y2="{height - 18}"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - 4}" '
                     f'text-anchor="middle">{frac * span:.2f}s</text>')
    last_pid = None
    for i, cell in enumerate(timed):
        y = i * row_h
        x0 = left + (cell["t0"] - t_min) / span * width
        bw = max((cell["t1"] - cell["t0"]) / span * width, 2.0)
        cls = "bar" if cell["status"] == "ok" else "bar-failed"
        label = f'{cell["workload"]}/{cell["technique"]}'
        pid = cell.get("pid")
        pid_text = (f"pid {pid}" if pid is not None and pid != last_pid
                    else "")
        last_pid = pid
        title = (f'{label} — {cell["status"]}, '
                 f'{cell["t1"] - cell["t0"]:.3f}s wall, '
                 f'cpu {_fmt(cell.get("cpu_s"))}s, '
                 f'rss {_fmt_rss(cell.get("max_rss_kib"))}')
        parts.append(f'<text class="lane-label" x="0" y="{y + 15}">'
                     f'{_esc(pid_text)}</text>')
        parts.append(f'<text x="56" y="{y + 15}">{_esc(label)}</text>')
        parts.append(
            f'<rect class="{cls}" x="{x0:.1f}" y="{y + 4}" '
            f'width="{bw:.1f}" height="{row_h - 9}" rx="4">'
            f'<title>{_esc(title)}</title></rect>')
    parts.append("</svg>")
    return "".join(parts)


def _cell_table(cells: list[dict[str, Any]]) -> str:
    rows = []
    for cell in cells:
        status_cls = ("status-ok" if cell["status"] == "ok"
                      else "status-failed")
        rows.append(
            "<tr>"
            f'<td>{_esc(cell["workload"])}</td>'
            f'<td>{_esc(cell["technique"])}</td>'
            f'<td class="{status_cls}">{_esc(cell["status"])}</td>'
            f'<td class="num">{_esc(cell["attempts"])}</td>'
            f'<td class="num">{_fmt(cell["elapsed_s"])}</td>'
            f'<td class="num">{_fmt(cell.get("cpu_s"))}</td>'
            f'<td class="num">{_esc(_fmt_rss(cell.get("max_rss_kib")))}'
            "</td>"
            f'<td class="num">{_esc(cell.get("pid") or "—")}</td>'
            "</tr>")
    return ("<table><thead><tr><th>workload</th><th>technique</th>"
            '<th>status</th><th class="num">attempts</th>'
            '<th class="num">wall s</th><th class="num">cpu s</th>'
            '<th class="num">max rss</th><th class="num">pid</th>'
            "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>")


def _failure_section(data: dict[str, Any]) -> str:
    taxonomy = data["failure_taxonomy"]
    if not taxonomy and not data["retries"] and not data["timeouts"]:
        return '<p class="sub">No failures, retries or timeouts.</p>'
    rows = "".join(
        f'<tr><td>{_esc(kind)}</td><td class="num">{count}</td></tr>'
        for kind, count in sorted(taxonomy.items()))
    extra = (f'<p class="sub">{data["retries"]} retry event(s), '
             f'{data["timeouts"]} timeout event(s).</p>')
    if not rows:
        return extra
    return ("<table><thead><tr><th>failure kind</th>"
            '<th class="num">cells</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>{extra}")


def _metrics_section(metrics: dict[str, Any]) -> str:
    if not metrics:
        return ('<p class="sub">No metric snapshots in the journals '
                "(telemetry off?).</p>")
    counters, gauges, hists = [], [], []
    for name, snap in metrics.items():
        kind = snap.get("kind")
        if kind == "counter":
            counters.append((name, snap["value"]))
        elif kind == "gauge":
            gauges.append((name, snap["value"]))
        elif kind == "histogram":
            hists.append((name, snap))
    parts = []
    if counters:
        rows = "".join(
            f'<tr><td><code>{_esc(n)}</code></td>'
            f'<td class="num">{_fmt(v)}</td></tr>' for n, v in counters)
        parts.append("<h2>Counters (summed across workers)</h2>"
                     "<table><thead><tr><th>metric</th>"
                     '<th class="num">value</th></tr></thead>'
                     f"<tbody>{rows}</tbody></table>")
    if gauges:
        rows = "".join(
            f'<tr><td><code>{_esc(n)}</code></td>'
            f'<td class="num">{_fmt(v)}</td></tr>' for n, v in gauges)
        parts.append("<h2>Gauges (last write, key order)</h2>"
                     "<table><thead><tr><th>metric</th>"
                     '<th class="num">value</th></tr></thead>'
                     f"<tbody>{rows}</tbody></table>")
    if hists:
        rows = []
        for name, snap in hists:
            buckets = snap.get("buckets") or {}
            top = sorted(buckets.items(),
                         key=lambda kv: kv[1], reverse=True)[:3]
            top_text = ", ".join(f"{label}: {count}"
                                 for label, count in top) or "—"
            rows.append(
                f'<tr><td><code>{_esc(name)}</code></td>'
                f'<td class="num">{snap.get("count", 0)}</td>'
                f'<td class="num">{_fmt(snap.get("mean"))}</td>'
                f'<td class="num">{_fmt(snap.get("min"))}</td>'
                f'<td class="num">{_fmt(snap.get("max"))}</td>'
                f'<td>{_esc(top_text)}</td></tr>')
        parts.append(
            "<h2>Histograms (merged bucket-wise)</h2>"
            "<table><thead><tr><th>metric</th>"
            '<th class="num">count</th><th class="num">mean</th>'
            '<th class="num">min</th><th class="num">max</th>'
            "<th>top buckets</th></tr></thead>"
            f'<tbody>{"".join(rows)}</tbody></table>')
    return "".join(parts)


def _sparkline(values: list[float], width: int = 220,
               height: int = 36) -> str:
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    spread = (hi - lo) or 1.0
    pts = []
    for i, value in enumerate(values):
        x = 4 + i * (width - 8) / (len(values) - 1)
        y = height - 6 - (value - lo) / spread * (height - 12)
        pts.append(f"{x:.1f},{y:.1f}")
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}"><polyline class="spark" '
            f'points="{" ".join(pts)}"/></svg>')


def _bench_section(bench: list[dict[str, Any]]) -> str:
    if not bench:
        return ('<p class="sub">No BENCH_*.json trajectory files '
                "found.</p>")
    names: list[str] = []
    for point in bench:
        for name in point["throughput"]:
            if name not in names:
                names.append(name)
    rows = []
    for name in sorted(names):
        series = [point["throughput"][name] for point in bench
                  if name in point["throughput"]]
        if not series:
            continue
        latest = series[-1]
        delta = ((latest / series[0] - 1.0) * 100.0
                 if len(series) > 1 and series[0] else 0.0)
        rows.append(
            f'<tr><td><code>{_esc(name)}</code></td>'
            f"<td>{_sparkline(series)}</td>"
            f'<td class="num">{latest:,.0f}</td>'
            f'<td class="num">{delta:+.1f}%</td></tr>')
    head = (f'<p class="sub">{len(bench)} snapshot(s): '
            f'{_esc(bench[0]["file"])} … {_esc(bench[-1]["file"])}. '
            "One sparkline per benchmark (single hue — identity by "
            "row, not color).</p>")
    return (head + "<table><thead><tr><th>benchmark</th>"
            '<th>median throughput / snapshot</th>'
            '<th class="num">latest (units/s)</th>'
            '<th class="num">vs first</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _lint_section(lints: list[dict[str, Any]]) -> str:
    if not lints:
        return ""
    rows = []
    for r in lints:
        cls = "status-ok" if r["ok"] else "status-failed"
        verdict = ("clean" if r["ok"] and not r["warnings"] else
                   "ok" if r["ok"] else "FAILED")
        rows.append(
            "<tr>"
            f'<td>{_esc(r["name"])}</td>'
            f'<td class="{cls}">{_esc(verdict)}</td>'
            f'<td class="num">{_esc(r["errors"])}</td>'
            f'<td class="num">{_esc(r["warnings"])}</td>'
            "</tr>")
    return ("<h2>Lint</h2>"
            "<table><thead><tr><th>target</th><th>verdict</th>"
            '<th class="num">errors</th><th class="num">warnings</th>'
            f'</tr></thead><tbody>{"".join(rows)}</tbody></table>')


def _plan_section(plans: list[dict[str, Any]]) -> str:
    """Per-workload vectorization-plan verdicts next to the lint table,
    one row per loop, with the oracle's cross-validation verdict."""
    if not plans:
        return ""
    rows = []
    for r in plans:
        if r["oracle_ok"] is None:
            oracle = "—"
            cls = ""
        elif r["oracle_ok"]:
            oracle, cls = "validated", "status-ok"
        else:
            oracle = f'UNSOUND ({r["violations"]} violation(s))'
            cls = "status-failed"
        for i, loop in enumerate(r["loops"]):
            rows.append(
                "<tr>"
                f'<td>{_esc(r["name"]) if i == 0 else ""}</td>'
                f'<td class="num">{_esc(loop["header"])}</td>'
                f'<td>{_esc(loop["verdict"])}</td>'
                f'<td>{_esc(", ".join(loop["guards"]) or "—")}</td>'
                f'<td>{_esc(", ".join(loop["reasons"]) or "—")}</td>'
                f'<td class="{cls}">{_esc(oracle) if i == 0 else ""}</td>'
                "</tr>")
    return ("<h2>Vectorization plans (lane-batching legality)</h2>"
            "<table><thead><tr><th>workload</th>"
            '<th class="num">loop</th><th>verdict</th><th>guards</th>'
            "<th>reasons</th><th>oracle</th></tr></thead>"
            f'<tbody>{"".join(rows)}</tbody></table>')


def _service_section(service: dict[str, Any]) -> str:
    """The ``repro serve`` slice of a ledger: job verdicts, cache and
    coalescing effectiveness, breaker opens, drains."""
    if not service:
        return ""
    states = ", ".join(f"{state}: {count}" for state, count in
                       sorted(service["by_state"].items())) or "—"
    rows = [
        ("jobs settled", str(service["jobs"])),
        ("by state", states),
        ("cache hits", str(service["cache_hits"])),
        ("coalesced submissions", str(service["coalesced"])),
        ("mean / max queue wait", f'{_fmt(service["wait_s_mean"])}s / '
                                  f'{_fmt(service["wait_s_max"])}s'),
        ("mean run time", f'{_fmt(service["run_s_mean"])}s'),
        ("breaker opens", str(service["breaker_opens"])),
    ]
    if service["breaker_keys"]:
        rows.append(("quarantined config hashes",
                     ", ".join(service["breaker_keys"])))
    for drain in service["drains"]:
        rows.append(("drain", f'{drain["reason"]} '
                              f'({drain["restarts"]} worker restart(s))'))
    body = "".join(
        f"<tr><td>{_esc(label)}</td><td>{_esc(value)}</td></tr>"
        for label, value in rows)
    bad = service["breaker_opens"] > 0
    cls = ' class="status-failed"' if bad else ""
    return ("<h2>Service (repro serve)</h2>"
            f"<p class=\"sub\"{cls}>"
            + ("Breaker opened — at least one config hash was "
               "quarantined." if bad else
               "All served jobs ran without opening a breaker.")
            + "</p><table><tbody>" + body + "</tbody></table>"
            + _service_history(service.get("samples") or []))


def _service_history(samples: list[dict[str, Any]]) -> str:
    """Live history: the server's periodic gauge samples, one sparkline
    per signal over the observed window."""
    if len(samples) < 2:
        return ""
    signals = (("busy workers", "busy_workers"),
               ("queue depth", "queue_depth"),
               ("cells in flight", "inflight"),
               ("jobs ok (cumulative)", "jobs_ok"),
               ("progress frames (cumulative)", "progress_frames"))
    rows = []
    for label, key in signals:
        series = [float(s.get(key, 0) or 0) for s in samples]
        rows.append(f"<tr><td>{_esc(label)}</td>"
                    f"<td>{_sparkline(series)}</td>"
                    f'<td class="num">{series[-1]:,.0f}</td></tr>')
    return ("<h3>Live history</h3>"
            f'<p class="sub">{len(samples)} periodic sample(s) from the '
            "server's metrics ring (latest value on the right).</p>"
            "<table><thead><tr><th>signal</th><th>history</th>"
            '<th class="num">latest</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _runlog_section(runlogs: list[dict[str, Any]]) -> str:
    if not runlogs:
        return ""
    rows = "".join(
        "<tr>"
        f'<td>{_esc(r["timestamp"])}</td>'
        f'<td class="num">{_esc(r.get("pid") or "—")}</td>'
        f'<td>{_esc(r["workload"])}</td>'
        f'<td>{_esc(r["technique"])}</td>'
        f'<td class="num">{_fmt(r.get("measure_s"))}</td>'
        "</tr>" for r in runlogs[:200])
    return ("<h2>Run log records</h2>"
            "<details><summary>"
            f"{len(runlogs)} run record(s) — expand</summary>"
            "<table><thead><tr><th>timestamp (UTC)</th>"
            '<th class="num">pid</th><th>workload</th><th>technique</th>'
            '<th class="num">measure s</th></tr></thead>'
            f"<tbody>{rows}</tbody></table></details>")


def render_html(data: dict[str, Any], title: str = "repro report") -> str:
    """The full dashboard page as one self-contained HTML string."""
    cells = data["cells"]
    ok = sum(1 for c in cells if c["status"] == "ok")
    failed = len(cells) - ok
    res = data["resources"]
    tiles = [
        _tile("cells", str(len(cells))),
        _tile("ok", str(ok)),
        _tile("failed", str(failed), bad=failed > 0),
        _tile("retries", str(data["retries"]), bad=data["retries"] > 0),
        _tile("cpu total", f'{res["cpu_s"]:.2f}s'),
        _tile("max rss", _fmt_rss(res["max_rss_kib"])),
        _tile("workers", str(len(res["pids"]))),
    ]
    body = [
        f"<h1>{_esc(title)}</h1>",
        '<p class="sub">Static dashboard generated from exec journals, '
        "run logs and bench trajectory files. Dark mode follows the "
        "system preference.</p>",
        f'<div class="tiles">{"".join(tiles)}</div>',
        "<h2>Sweep timeline (one lane per cell, grouped by worker pid)"
        "</h2>",
        _timeline_svg(cells),
        "<h2>Per-cell wall / CPU / RSS</h2>",
        (_cell_table(cells) if cells
         else '<p class="sub">No cell records found.</p>'),
        "<h2>Failures and retries</h2>",
        _failure_section(data),
        _service_section(data.get("service") or {}),
        _metrics_section(data["metrics"]),
        _lint_section(data.get("lints") or []),
        _plan_section(data.get("plans") or []),
        "<h2>Bench trajectory</h2>",
        _bench_section(data["bench"]),
        _runlog_section(data["runlogs"]),
    ]
    return ("<!doctype html><html lang=\"en\"><head>"
            '<meta charset="utf-8">'
            '<meta name="viewport" '
            'content="width=device-width, initial-scale=1">'
            f"<title>{_esc(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            + "".join(body) + "</body></html>")


def generate_report(journals: Iterable[str | Path] = (),
                    runlogs: Iterable[str | Path] = (),
                    bench_dir: str | Path | None = None,
                    out_path: str | Path = "results/report.html",
                    ) -> tuple[Path, dict[str, Any]]:
    """Build the data, render the page, write it; returns (path, data)."""
    data = build_report_data(list(journals), list(runlogs), bench_dir)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(data), encoding="utf-8")
    return out, data

"""``repro top``: a self-refreshing terminal view of live simulation.

Two sources, one renderer:

* **server mode** (``--url``) polls a running ``repro serve`` —
  ``/healthz`` for workers and queue depth, ``/jobs`` for per-job state
  with live progress frames, ``/metrics/history`` for a recent-activity
  sparkline;
* **journal mode** (``--journal``) replays a local sweep/exec journal
  and summarises settled cells — useful when there is no server, only a
  long-running batch sweep writing checkpoints.

Everything renders to plain text; the refresh loop repaints with ANSI
cursor-home + clear-to-end (no curses dependency), and ``--once``
prints a single frame with no escape codes at all (scripts, CI logs).
"""

from __future__ import annotations

import time
from typing import Any, Callable, TextIO

from repro.exec.journal import RunJournal

_BAR_WIDTH = 22
_SPARKS = "▁▂▃▄▅▆▇█"


def progress_bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    """``[#####.............]`` for a 0..1 fraction."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def frame_fraction(frame: dict[str, Any]) -> float:
    target = frame.get("target_instructions") or 0
    if target <= 0:
        return 0.0
    return min(1.0, float(frame.get("instructions", 0)) / target)


def frame_eta_s(frame: dict[str, Any]) -> float | None:
    """Linear ETA from instructions-per-wall-second so far."""
    fraction = frame_fraction(frame)
    wall = frame.get("wall_s") or 0.0
    if fraction <= 0.0 or wall <= 0.0:
        return None
    if fraction >= 1.0:
        return 0.0
    return wall * (1.0 - fraction) / fraction


def _fmt_eta(eta: float | None) -> str:
    if eta is None:
        return "eta ?"
    if eta >= 90.0:
        return f"eta {eta / 60.0:.1f}m"
    return f"eta {eta:.0f}s"


def sparkline(values: list[float], width: int = 24) -> str:
    values = values[-width:]
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(int(v / top * (len(_SPARKS) - 1) + 0.5),
                    len(_SPARKS) - 1)]
        for v in values)


# ---------------------------------------------------------------------------
# Server mode.
# ---------------------------------------------------------------------------

def render_server_view(health: dict[str, Any],
                       jobs: list[dict[str, Any]],
                       history: list[dict[str, Any]],
                       url: str) -> str:
    lines = [
        f"repro top — {url}  [{health.get('status', '?')}]  "
        f"uptime {health.get('uptime_s', 0):.0f}s",
        f"queue {health.get('queue_depth', 0)}  "
        f"inflight {health.get('inflight', 0)}  "
        f"restarts {health.get('worker_restarts', 0)}  "
        f"store {health.get('store', {}).get('entries', 0)} entries  "
        f"events {health.get('events_published', 0)}",
        "",
        "workers:",
    ]
    for worker in health.get("workers", []):
        line = (f"  w{worker.get('worker')}  pid {worker.get('pid')}  "
                f"{worker.get('state', '?'):<5} "
                f"done {worker.get('jobs_done', 0)}")
        frame = worker.get("progress")
        if worker.get("running"):
            line += f"  {worker['running']}"
        if frame:
            line += (f"  {progress_bar(frame_fraction(frame))} "
                     f"{frame_fraction(frame) * 100:3.0f}%  "
                     f"cyc {frame.get('cycle', 0):.0f}  "
                     f"ipc {frame.get('ipc', 0):.2f}  "
                     f"{_fmt_eta(frame_eta_s(frame))}")
        lines.append(line)
    active = [j for j in jobs
              if j.get("state") in ("queued", "running")]
    done = [j for j in jobs
            if j.get("state") not in ("queued", "running")]
    lines += ["", f"jobs ({len(active)} active, {len(done)} settled):"]
    for job in active + done[-8:]:
        line = (f"  {job.get('job_id', '?'):<8} "
                f"{job.get('workload', '?')}/{job.get('technique', '?')}"
                f"  {job.get('state', '?'):<7}")
        if job.get("wait_s") is not None:
            line += f" wait {job['wait_s']:.1f}s"
        frame = job.get("progress")
        if job.get("state") == "running" and frame:
            line += (f"  {progress_bar(frame_fraction(frame))} "
                     f"{frame_fraction(frame) * 100:3.0f}%  "
                     f"ipc {frame.get('ipc', 0):.2f}  "
                     f"{_fmt_eta(frame_eta_s(frame))}")
        if job.get("cached"):
            line += "  (cache hit)"
        lines.append(line)
    if history:
        busy = [float(s.get("busy_workers", 0)) for s in history]
        depth = [float(s.get("queue_depth", 0)) for s in history]
        lines += ["",
                  f"history ({len(history)} samples): "
                  f"busy {sparkline(busy)}  queue {sparkline(depth)}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Journal mode.
# ---------------------------------------------------------------------------

def render_journal_view(path: str,
                        cells: list[dict[str, Any]]) -> str:
    ok = [c for c in cells if c.get("status") == "ok"]
    failed = [c for c in cells if c.get("status") != "ok"]
    lines = [
        f"repro top — journal {path}",
        f"settled {len(cells)} cell(s): {len(ok)} ok, "
        f"{len(failed)} failed",
        "",
    ]
    for cell in cells[-16:]:
        status = cell.get("status", "?")
        line = (f"  {cell.get('workload', '?')}/"
                f"{cell.get('technique', '?'):<12} {status:<7}"
                f" attempts {cell.get('attempts', 1)}")
        if cell.get("elapsed_s") is not None:
            line += f"  {cell['elapsed_s']:.2f}s"
        result = cell.get("result") or {}
        if status == "ok" and result.get("ipc") is not None:
            line += f"  ipc {result['ipc']:.3f}"
        failure = cell.get("failure") or {}
        if failure:
            line += f"  {failure.get('kind', '?')}"
            frame = failure.get("progress")
            if frame:
                line += (f" @ cycle {frame.get('cycle', 0):.0f} "
                         f"({frame_fraction(frame) * 100:.0f}% done)")
        lines.append(line)
    elapsed = [c.get("elapsed_s", 0.0) for c in cells if c.get("elapsed_s")]
    if elapsed:
        lines += ["", f"cell seconds: {sparkline(elapsed)}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The refresh loop.
# ---------------------------------------------------------------------------

def run_top(*, url: str | None = None, journal: str | None = None,
            interval_s: float = 2.0, once: bool = False,
            iterations: int | None = None, out: TextIO,
            sleep: Callable[[float], None] = time.sleep) -> int:
    """Render until interrupted (or *iterations* frames; tests)."""
    if (url is None) == (journal is None):
        raise ValueError("run_top needs exactly one of url or journal")

    def frame_text() -> str:
        if journal is not None:
            cells = [record for record in RunJournal(journal).records()
                     if record.get("event") == "cell"]
            return render_journal_view(journal, cells)
        from repro.serve.client import ServeClient, ServeClientError
        client = ServeClient(url, timeout_s=5.0)
        try:
            health = client.health()
            jobs = client.jobs()
            history = client.history(last=48)
        except ServeClientError as exc:
            return f"repro top — {url}: {exc}\n"
        return render_server_view(health, jobs, history, url)

    count = 0
    try:
        while True:
            text = frame_text()
            if once:
                out.write(text)
                return 0
            out.write("\x1b[H\x1b[J" + text)
            out.flush()
            count += 1
            if iterations is not None and count >= iterations:
                return 0
            sleep(interval_s)
    except KeyboardInterrupt:
        out.write("\n")
        return 0

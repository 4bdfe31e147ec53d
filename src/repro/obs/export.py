"""Chrome trace-event export: probe streams → Perfetto-viewable JSON.

Subscribes to the probe bus and renders simulated time onto the Chrome
trace-event timeline (open the output at https://ui.perfetto.dev or in
``chrome://tracing``).  One simulated cycle is rendered as one
microsecond of trace time.

Mapping
-------
* ``svr.prm_enter`` / ``svr.prm_exit``   → complete slices (``ph: "X"``)
  on the *svr* track: one slice per piggyback-runahead episode, named by
  its termination cause, with lane count / HSLR PC in ``args``;
* ``dram.access``                        → async begin/end pairs
  (``ph: "b"`` / ``"e"``) on the *dram* track, so overlapping line fills
  are visible as stacked arcs;
* ``mem.load`` at DRAM level             → complete slices on the
  *memory* track (demand misses, the thing SVR exists to overlap);
* ``svr.svi``                            → instant events (``ph: "i"``)
  marking where transient lanes are generated.

Per-instruction views come from ``repro trace``
(:mod:`repro.harness.trace`), the one subscriber of ``core.commit``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.probes import ProbeBus, Subscription

# Trace-time scale: one simulated cycle rendered as one microsecond.
TICKS_PER_CYCLE = 1.0

_PID = 1
_TRACKS = {
    "svr": 2,
    "memory": 3,
    "dram": 4,
}


class ChromeTraceBuilder:
    """Collects trace events from a probe bus; writes trace-event JSON."""

    def __init__(self, *, max_events: int = 500_000) -> None:
        self.max_events = max_events
        self.events: list[dict[str, Any]] = []
        self.dropped = 0
        self._subs: list[Subscription] = []
        self._dram_seq = 0
        self._prm_open: tuple[float, dict[str, Any]] | None = None
        self._max_ts = 0.0

    # -- collection ---------------------------------------------------------

    def _push(self, event: dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _note_ts(self, ts: float) -> None:
        if ts > self._max_ts:
            self._max_ts = ts

    def attach(self, bus: ProbeBus) -> None:
        """Subscribe to the probes this exporter renders."""
        wiring: dict[str, Any] = {
            "svr.prm_enter": self._on_prm_enter,
            "svr.prm_exit": self._on_prm_exit,
            "dram.access": self._on_dram,
            "svr.svi": self._on_svi,
            "mem.load": self._on_load,
        }
        self._subs = [bus.subscribe(name, fn)
                      for name, fn in wiring.items()]

    def detach(self) -> None:
        for sub in self._subs:
            sub.cancel()
        self._subs = []

    def _on_prm_enter(self, _name: str, ev: dict) -> None:
        ts = ev["time"] * TICKS_PER_CYCLE
        self._note_ts(ts)
        self._prm_open = (ts, {"pc": ev["pc"], "length": ev["length"],
                               "stride": ev.get("stride")})

    def _on_prm_exit(self, _name: str, ev: dict) -> None:
        ts = ev["time"] * TICKS_PER_CYCLE
        self._note_ts(ts)
        if self._prm_open is None:
            return  # episode opened before this exporter attached
        start, args = self._prm_open
        self._prm_open = None
        args = dict(args, cause=ev["cause"],
                    instructions=ev.get("instructions"))
        self._push({"name": f"PRM ({ev['cause']})", "cat": "svr",
                    "ph": "X", "ts": start,
                    "dur": max(ts - start, 0.01),
                    "pid": _PID, "tid": _TRACKS["svr"], "args": args})

    def _on_dram(self, _name: str, ev: dict) -> None:
        start = ev["start"] * TICKS_PER_CYCLE
        end = ev["completion"] * TICKS_PER_CYCLE
        self._note_ts(end)
        self._dram_seq += 1
        ident = str(self._dram_seq)
        common = {"name": "dram line", "cat": "dram", "id": ident,
                  "pid": _PID, "tid": _TRACKS["dram"]}
        self._push(dict(common, ph="b", ts=start))
        self._push(dict(common, ph="e", ts=max(end, start + 0.01)))

    def _on_load(self, _name: str, ev: dict) -> None:
        if ev["level"] != "dram":
            return
        ts = ev["time"] * TICKS_PER_CYCLE
        end = ev["completion"] * TICKS_PER_CYCLE
        self._note_ts(end)
        self._push({"name": "load (dram)", "cat": "mem", "ph": "X",
                    "ts": ts, "dur": max(end - ts, 0.01),
                    "pid": _PID, "tid": _TRACKS["memory"],
                    "args": {"addr": ev["addr"], "pc": ev.get("pc")}})

    def _on_svi(self, _name: str, ev: dict) -> None:
        ts = ev["time"] * TICKS_PER_CYCLE
        self._note_ts(ts)
        self._push({"name": f"svi x{ev['lanes']}", "cat": "svr",
                    "ph": "i", "s": "t", "ts": ts,
                    "pid": _PID, "tid": _TRACKS["svr"],
                    "args": {"lanes": ev["lanes"], "pc": ev.get("pc")}})

    # -- output -------------------------------------------------------------

    def close(self) -> None:
        """Close a PRM episode still open at window end as a ``PRM
        (open)`` slice ending at the last timestamp seen, so the episode
        is not lost."""
        if self._prm_open is None:
            return
        start, args = self._prm_open
        self._prm_open = None
        self._push({"name": "PRM (open)", "cat": "svr", "ph": "X",
                    "ts": start, "dur": max(self._max_ts - start, 0.01),
                    "pid": _PID, "tid": _TRACKS["svr"],
                    "args": dict(args, cause="window-end")})

    def to_dict(self) -> dict[str, Any]:
        self.close()
        events = list(self.events)
        meta: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": _PID,
             "args": {"name": "repro-sim"}},
        ]
        for track, tid in _TRACKS.items():
            meta.append({"name": "thread_name", "ph": "M", "pid": _PID,
                         "tid": tid, "args": {"name": track}})
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.obs.export",
                "ticks_per_cycle": TICKS_PER_CYCLE,
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path


def spans_to_trace_events(spans: list[dict[str, Any]], *, pid: int,
                          tid: int = 1) -> list[dict[str, Any]]:
    """Render span dicts (:class:`repro.obs.runlog.SelfProfile`'s) as
    Chrome complete slices: monotonic seconds map to trace microseconds.

    Spans nest on one ``tid`` by time containment, which is how Perfetto
    stacks them.  Spans whose ``clock`` is ``cycles`` are skipped: only
    journals written by older versions hold such spans (per-PRM-episode
    spans on the simulated clock, which the trace events already cover),
    and their timebase is not the wall clock.
    """
    events = []
    for span in spans:
        if span.get("clock") == "cycles" or span.get("end") is None:
            continue
        start = span["start"] * 1e6
        end = span["end"] * 1e6
        args = dict(span.get("attrs") or {})
        args["status"] = span.get("status", "ok")
        events.append({"name": span["name"], "cat": "span", "ph": "X",
                       "ts": start, "dur": max(end - start, 0.01),
                       "pid": pid, "tid": tid, "args": args})
    return events


def build_multiprocess_trace(
        processes: "list[dict[str, Any]]") -> dict[str, Any]:
    """Assemble one Perfetto trace with one process track per pid.

    Each entry of *processes* describes one OS process of a sweep::

        {"pid": 1234, "label": "worker Camel/svr16",
         "events": [...chrome events (ts already in trace µs)...]}

    Entries sharing a pid (inline execution, recycled worker pids) are
    folded into one process track.  Every pid gets ``process_name``
    metadata and every ``(pid, tid)`` seen in its events gets
    ``thread_name`` metadata (the event's ``cat`` as a fallback name),
    so the merged trace passes the multi-pid checks of
    :func:`validate_trace`.  Timestamps are shifted so the earliest
    event starts at 0 — raw monotonic-clock microseconds put the
    viewport hours into the timeline.
    """
    by_pid: dict[int, dict[str, Any]] = {}
    order: list[int] = []
    for proc in processes:
        pid = proc["pid"]
        entry = by_pid.get(pid)
        if entry is None:
            entry = {"label": proc.get("label") or f"pid {pid}",
                     "events": []}
            by_pid[pid] = entry
            order.append(pid)
        entry["events"].extend(proc.get("events") or [])

    origin = min((ev["ts"] for entry in by_pid.values()
                  for ev in entry["events"]
                  if isinstance(ev.get("ts"), (int, float))),
                 default=0.0)
    meta: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    for sort_index, pid in enumerate(order):
        entry = by_pid[pid]
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "args": {"name": entry["label"]}})
        meta.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                     "args": {"sort_index": sort_index}})
        tids: dict[int, str] = {}
        for ev in entry["events"]:
            ev = dict(ev, pid=pid)
            if isinstance(ev.get("ts"), (int, float)):
                ev["ts"] = ev["ts"] - origin
            tid = ev.get("tid")
            if tid is not None and tid not in tids:
                tids[tid] = str(ev.get("cat") or f"track {tid}")
            events.append(ev)
        for tid in sorted(tids):
            meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                         "tid": tid, "args": {"name": tids[tid]}})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.export.multiprocess",
                      "processes": len(by_pid)},
    }


def write_trace(trace: dict[str, Any], path: str | Path) -> Path:
    """Serialise any trace dict (builder or merged) to *path*."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace), encoding="utf-8")
    return path


def validate_trace(trace: dict[str, Any]) -> list[str]:
    """Cheap structural validation against the trace-event format; returns
    a list of problems (empty = well-formed).  Used by tests and by users
    sanity-checking exported files.

    Beyond per-event shape, traces that carry metadata are checked for
    track-naming consistency — the multi-pid merge contract: every pid
    with events needs ``process_name`` metadata, and in a multi-pid trace
    every ``(pid, tid)`` track needs ``thread_name`` metadata, or
    Perfetto renders anonymous interleaved tracks.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    event_pids: set[Any] = set()
    event_tracks: set[tuple[Any, Any]] = set()
    named_pids: set[Any] = set()
    named_tracks: set[tuple[Any, Any]] = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "b", "e", "n", "i", "I", "M", "C"):
            problems.append(f"event {i}: bad ph {ph!r}")
            continue
        if "pid" not in ev:
            problems.append(f"event {i}: missing pid")
        if ph == "M":
            name = ev.get("name")
            if name == "process_name":
                named_pids.add(ev.get("pid"))
            elif name == "thread_name":
                named_tracks.add((ev.get("pid"), ev.get("tid")))
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"event {i}: missing/bad ts")
        if "tid" not in ev:
            problems.append(f"event {i}: missing tid")
        else:
            event_tracks.add((ev.get("pid"), ev.get("tid")))
        if "pid" in ev:
            event_pids.add(ev["pid"])
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"event {i}: X without dur")
        if ph in ("b", "e", "n") and "id" not in ev:
            problems.append(f"event {i}: async event without id")
    if named_pids or named_tracks:
        for pid in sorted(event_pids - named_pids, key=str):
            problems.append(
                f"pid {pid} has events but no process_name metadata")
        if len(event_pids) > 1:
            for pid, tid in sorted(event_tracks - named_tracks, key=str):
                problems.append(
                    f"track pid={pid} tid={tid} has events but no "
                    "thread_name metadata (multi-pid trace)")
    return problems

"""Hierarchical span tracing for the execution lifecycle.

A :class:`Span` is one named, timed interval with a parent — the unit the
cross-process telemetry pipeline (``docs/observability.md``) is built
from.  The executor opens spans around its own lifecycle
(``run_cells`` → ``attempt`` and each worker's ``spawn`` / ``reap``),
each cell opens spans around the simulator phases (``build`` / ``warmup`` /
``measure`` / ``serialize``), and the sim-side probe bus is bridged into
cycle-clock phase spans (one per PRM episode) — so a whole ``--jobs N``
sweep reconstructs as one tree that survives the process boundary.

Two clocks coexist, named explicitly on every span:

* ``wall`` — ``time.monotonic()`` seconds.  On Linux the monotonic clock
  is shared by every process on the machine, which is what makes parent
  and worker spans directly comparable on one merged timeline.
* ``cycles`` — simulated cycles, used by spans bridged off the probe
  bus; their timebase is private to one simulation window.

Spans are buffered (bounded by ``max_spans``, counting drops) and
exported as plain JSON-ready dicts, which is how they ride the worker
result pipe and the resume journal.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.probes import ProbeBus, Subscription

SPAN_SCHEMA = 1

WALL = "wall"
CYCLES = "cycles"


class Span:
    """One named interval.  ``end is None`` while still open."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "clock",
                 "status", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 start: float, clock: str = WALL,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.clock = clock
        self.status = "ok"
        self.attrs = attrs or {}

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name, "id": self.span_id, "start": self.start,
            "end": self.end, "clock": self.clock, "status": self.status,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class SpanTracer:
    """Collects a bounded buffer of spans for one process.

    ``begin``/``end`` maintain an explicit stack (new spans parent to the
    innermost open one); :meth:`add` records an already-closed interval —
    the shape the event-driven parent loop and the probe bridge need.
    The tracer is single-threaded by design, like the simulator.
    """

    def __init__(self, pid: int | None = None,
                 max_spans: int = 4096) -> None:
        self.pid = os.getpid() if pid is None else pid
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._next_id = 1

    # -- recording ----------------------------------------------------------

    def _new(self, name: str, start: float, parent_id: int | None,
             clock: str, attrs: dict[str, Any]) -> Span:
        span = Span(name, self._next_id, parent_id, start, clock, attrs)
        self._next_id += 1
        return span

    def _keep(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = self._new(name, time.monotonic(), parent, WALL, attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span | None = None, status: str | None = None,
            **attrs: Any) -> Span:
        """Close *span* (default: the innermost open one) and everything
        opened inside it that was left dangling."""
        if not self._stack:
            raise RuntimeError("SpanTracer.end with no open span")
        target = span if span is not None else self._stack[-1]
        if target not in self._stack:
            raise RuntimeError(f"span {target.name!r} is not open")
        now = time.monotonic()
        while True:
            top = self._stack.pop()
            top.end = now
            if top is not target and top.status == "ok":
                top.status = "abandoned"
            self._keep(top)
            if top is target:
                break
        if status is not None:
            target.status = status
        if attrs:
            target.attrs.update(attrs)
        return target

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        except BaseException:
            self.end(span, status="error")
            raise
        self.end(span)

    def add(self, name: str, start: float, end: float, *,
            parent: Span | int | None = None, clock: str = WALL,
            status: str = "ok", **attrs: Any) -> Span:
        """Record an interval measured externally.  ``parent=None``
        attaches to the innermost open span (if any)."""
        if parent is None:
            parent_id = self._stack[-1].span_id if self._stack else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = self._new(name, start, parent_id, clock, attrs)
        span.end = end
        span.status = status
        self._keep(span)
        return span

    # -- export -------------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """Closed spans as JSON-ready dicts, in completion order."""
        return [span.to_dict() for span in self.spans]


def spans_to_trace_events(spans: list[dict[str, Any]], *, pid: int,
                          tid: int = 1) -> list[dict[str, Any]]:
    """Render exported wall-clock spans as Chrome complete slices.

    Wall seconds map to trace microseconds; cycle-clock spans are skipped
    (their timebase is private to one simulation window — the sim-side
    trace-event tail covers that view).  Nested spans land on one ``tid``
    and nest by time containment, which is how Perfetto stacks them.
    """
    events = []
    for span in spans:
        if span.get("clock") != WALL or span.get("end") is None:
            continue
        start = span["start"] * 1e6
        end = span["end"] * 1e6
        args = dict(span.get("attrs") or {})
        args["status"] = span.get("status", "ok")
        events.append({"name": span["name"], "cat": "span", "ph": "X",
                       "ts": start, "dur": max(end - start, 0.01),
                       "pid": pid, "tid": tid, "args": args})
    return events


def bridge_probe_spans(tracer: SpanTracer, bus: ProbeBus,
                       parent: Span | int | None = None,
                       ) -> list[Subscription]:
    """Record sim-side phase spans off the probe bus.

    Each PRM episode (``svr.prm_enter``/``svr.prm_exit``) becomes one
    cycle-clock span named ``prm`` with its termination cause; watchdog
    trips become zero-length ``watchdog`` markers.  Returns the
    subscriptions so the caller detaches them when its window closes.
    """
    open_enter: list[dict[str, Any] | None] = [None]
    parent_id = parent.span_id if isinstance(parent, Span) else parent

    def on_enter(_name: str, ev: dict[str, Any]) -> None:
        open_enter[0] = ev

    def on_exit(_name: str, ev: dict[str, Any]) -> None:
        enter = open_enter[0]
        if enter is None:
            return                       # opened before the bridge attached
        open_enter[0] = None
        tracer.add("prm", enter["time"], ev["time"], parent=parent_id,
                   clock=CYCLES, cause=ev.get("cause"),
                   pc=enter.get("pc"), length=enter.get("length"),
                   instructions=ev.get("instructions"))

    def on_watchdog(_name: str, ev: dict[str, Any]) -> None:
        cycle = ev.get("cycle") or 0.0
        tracer.add("watchdog", cycle, cycle, parent=parent_id,
                   clock=CYCLES, status="error", kind=ev.get("kind"),
                   pc=ev.get("pc"))

    return [bus.subscribe("svr.prm_enter", on_enter),
            bus.subscribe("svr.prm_exit", on_exit),
            bus.subscribe("core.watchdog", on_watchdog)]

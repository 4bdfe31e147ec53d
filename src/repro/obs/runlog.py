"""Structured run logs: append-only JSONL records, and the one phase
timer.

One record per simulator invocation (a ``harness.runner.run`` call or a
figure regeneration): the configuration, the :class:`SimResult` export,
the metric snapshot of the measured window, and where the *wall-clock*
time went (build / warmup / measure).  Records are one JSON object per
line so a session log can be tailed, grepped and loaded incrementally.
The schema is documented in ``docs/observability.md``.

:class:`SelfProfile` is the timer behind that ``profile`` field and
behind every span the execution telemetry ships: it records each timed
section once, as a span dict on ``time.monotonic``, and sums the
seconds per name on demand.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Iterator

# v2: fractional-second timestamps plus per-process ``seq``/``pid`` so
# same-second records (common in tight sweeps) stay totally ordered.
SCHEMA_VERSION = 2


class SelfProfile:
    """Records timed sections as span dicts: ``name``, ``start`` and
    ``end`` (``time.monotonic`` seconds, which on Linux every process on
    the machine shares, so spans from different processes line up),
    ``status`` (``ok``, or ``error`` when the section raised) and, when
    given, ``attrs``.  Spans are kept in the order they closed."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    @contextmanager
    def section(self, name: str, **attrs: Any) -> Iterator[None]:
        start = time.monotonic()
        status = "error"
        try:
            yield
            status = "ok"
        finally:
            self.add(name, start, time.monotonic(), status, **attrs)

    def add(self, name: str, start: float, end: float, status: str = "ok",
            **attrs: Any) -> None:
        """Record an interval timed elsewhere."""
        span: dict[str, Any] = {"name": name, "start": start, "end": end,
                                "status": status}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def snapshot(self) -> dict[str, float]:
        """Seconds per section name, summed over its spans."""
        seconds: dict[str, float] = {}
        for span in self.spans:
            name = span["name"]
            elapsed = span["end"] - span["start"]
            seconds[name] = seconds.get(name, 0.0) + elapsed
        return {name: round(seconds[name], 6) for name in sorted(seconds)}


# Per-process monotonic record counter: same-timestamp records (even at
# microsecond resolution two records can tie) sort by (pid, seq).
_SEQ = itertools.count()


def make_record(kind: str, **fields: Any) -> dict[str, Any]:
    """A schema-stamped record; *fields* are merged in verbatim.

    Timestamps are UTC (``...Z``) with fractional seconds: local-time
    ``%z`` rendered records non-comparable across machines, and
    whole-second resolution left same-second records unordered.  ``seq``
    is a per-process monotonic counter and ``pid`` the writing process,
    so merged multi-process logs have a total order ``(timestamp, pid,
    seq)``.
    """
    now = datetime.now(timezone.utc)
    record: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "timestamp": now.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        "seq": next(_SEQ),
        "pid": os.getpid(),
    }
    record.update(fields)
    return record


class RunLog:
    """Append-only JSONL writer holding one open handle.

    The first :meth:`append` opens the file (creating parent directories)
    and every subsequent append reuses the handle with an explicit flush
    per record — reopening per record turned hot sweeps into an
    open/close storm.  Use as a context manager, or call :meth:`close`;
    a dropped ``RunLog`` closes its handle on garbage collection.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def append(self, record: dict[str, Any]) -> None:
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:       # interpreter teardown; nothing to do
            pass

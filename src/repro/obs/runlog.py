"""Structured run logs: append-only JSONL records plus a wall-clock
self-profile.

One record per simulator invocation (a ``harness.runner.run`` call or a
figure regeneration): the configuration, the :class:`SimResult` export,
the metric snapshot of the measured window, and where the *wall-clock*
time went (build / warmup / measure, via ``time.perf_counter``).  Records
are one JSON object per line so a session log can be tailed, grepped and
loaded incrementally.  The schema is documented in
``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, IO

# v2: fractional-second timestamps plus per-process ``seq``/``pid`` so
# same-second records (common in tight sweeps) stay totally ordered.
SCHEMA_VERSION = 2


class SelfProfile:
    """Accumulates wall-clock seconds per named section."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def section(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def snapshot(self) -> dict[str, float]:
        return {name: round(self.seconds[name], 6)
                for name in sorted(self.seconds)}


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

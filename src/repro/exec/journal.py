"""JSONL retry/resume journal keyed by deterministic config hashes.

Each completed cell — success or terminal failure — appends one ``cell``
record.  Re-invoking a sweep or figure with ``resume=True`` loads the
journal, serves previously-successful cells from their stored result
dicts, and re-runs only the cells whose *last* record is a failure (or
that never completed).  Appends are flushed and fsynced per record so a
killed run loses at most the cell in flight.

Corruption tolerance on load: a torn **trailing** line from a hard kill
is expected and silently ignored; a corrupt line **mid-file** (disk
fault, concurrent writer, manual edit) is skipped with a warning and
counted — in :attr:`RunJournal.skipped_records` and, when the journal
carries a probe bus, as an ``exec.journal.skip`` probe event feeding the
``exec.journal_skipped_records`` metric — instead of poisoning the
resume (every parseable record still loads).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.probes import ProbeBus

JOURNAL_VERSION = 1


def cell_record(*, key: str, workload: str, technique: str, scale: str,
                status: str, attempts: int, elapsed_s: float,
                result: dict | None = None, failure: dict | None = None,
                spec: dict | None = None,
                telemetry: dict | None = None) -> dict[str, Any]:
    """One settled cell as a ``cell`` record (what :meth:`RunJournal.load`
    returns, less the ``v``/``ts`` stamps :meth:`RunJournal.append`
    adds)."""
    record: dict[str, Any] = {
        "event": "cell", "key": key, "workload": workload,
        "technique": technique, "scale": scale, "status": status,
        "attempts": attempts, "elapsed_s": round(elapsed_s, 6),
    }
    if result is not None:
        record["result"] = result
    if failure is not None:
        record["failure"] = failure
    if spec is not None:
        record["spec"] = spec
    if telemetry is not None:
        record["telemetry"] = telemetry
    return record


class RunJournal:
    """Append-only JSONL checkpoint of completed cells."""

    def __init__(self, path: str | os.PathLike,
                 bus: "ProbeBus | None" = None) -> None:
        self.path = Path(path)
        self.skipped_records = 0        # cumulative across load() calls
        self._p_skip = (bus.probe("exec.journal.skip")
                        if bus is not None else None)

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> dict[str, dict[str, Any]]:
        """Latest ``cell`` record per key (later records win, so a
        resumed re-run of a failed cell supersedes the failure)."""
        records: dict[str, dict[str, Any]] = {}
        if not self.exists():
            return records
        with self.path.open(encoding="utf-8") as fh:
            lines = [(no, line.strip())
                     for no, line in enumerate(fh, start=1)]
        lines = [(no, line) for no, line in lines if line]
        for index, (no, line) in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    continue    # torn tail from a killed writer: expected
                self._skip(no)
                continue
            if (isinstance(record, dict)
                    and record.get("event") == "cell"
                    and "key" in record):
                records[record["key"]] = record
        return records

    def _skip(self, line_no: int) -> None:
        self.skipped_records += 1
        warnings.warn(
            f"journal {self.path}: skipping corrupt record at line "
            f"{line_no} (mid-file corruption; resume continues without "
            "it)", RuntimeWarning, stacklevel=3)
        if self._p_skip is not None:
            self._p_skip.emit(path=str(self.path), line=line_no)

    def append(self, record: dict[str, Any]) -> None:
        """Stamp *record* in place with ``v`` and ``ts`` (unless set),
        then append it durably."""
        record.setdefault("v", JOURNAL_VERSION)
        record.setdefault("ts", round(time.time(), 3))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_cell(self, **fields: Any) -> None:
        """Append one :func:`cell_record` built from *fields*."""
        self.append(cell_record(**fields))

    def append_event(self, event: str, **fields: Any) -> None:
        """Free-form marker records (``retry``, ``timeout``, ``sweep``)
        for post-mortems; ignored by :meth:`load`."""
        record = {"event": event}
        record.update(fields)
        self.append(record)

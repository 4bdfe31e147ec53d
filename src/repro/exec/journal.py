"""JSONL retry/resume journal keyed by deterministic config hashes.

Each completed cell — success or terminal failure — appends one ``cell``
record.  Re-invoking a sweep or figure with ``resume=True`` serves
previously-successful cells from :meth:`RunJournal.results` and re-runs
only the cells whose *last* record is a failure (or that never
completed); ``repro serve`` answers its cache hits from the same method
over its ledger.  Appends are flushed and fsynced per record so a killed
run loses at most the cell in flight, and each record is stamped with
the ``sha256`` of its canonical JSON.

:meth:`RunJournal.records` is the one reader of these files (and of
the JSONL run logs ``repro report`` folds in); ``--resume``, ``repro
serve``, ``repro report`` and ``repro top --journal`` all go through
it.  A torn **trailing** line from a hard kill is expected and silently
ignored; a corrupt line **mid-file** (disk fault, concurrent writer,
manual edit), or a record whose ``sha256`` does not match its contents,
is skipped with a warning and counted — in
:attr:`RunJournal.skipped_records` and, when the journal carries a probe
bus, as an ``exec.journal.skip`` probe event feeding the
``exec.journal_skipped_records`` metric — instead of poisoning the read
(every other record still loads).  Records written before the checksum
existed carry no ``sha256`` and load as before.
"""

from __future__ import annotations

import hashlib
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
    returns, less the ``v``/``ts``/``sha256`` stamps
    :meth:`RunJournal.append` adds)."""
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


def _digest(record: dict[str, Any]) -> str:
    """sha256 hex digest of *record*'s canonical JSON, its own ``sha256``
    field excluded."""
    body = {k: v for k, v in record.items() if k != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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

    def records(self) -> list[dict[str, Any]]:
        """Every parseable JSON object in the file whose ``sha256``, when
        it has one, matches its contents, in file order."""
        if not self.exists():
            return []
        with self.path.open(encoding="utf-8") as fh:
            lines = [(no, line.strip())
                     for no, line in enumerate(fh, start=1)]
        lines = [(no, line) for no, line in lines if line]
        records = []
        for index, (no, line) in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    continue    # torn tail from a killed writer: expected
                self._skip(no, "mid-file corruption")
                continue
            if not isinstance(record, dict):
                continue
            if "sha256" in record and record["sha256"] != _digest(
                    record):
                self._skip(no, "its sha256 does not match its contents")
                continue
            records.append(record)
        return records

    def load(self) -> dict[str, dict[str, Any]]:
        """Latest ``cell`` record per key (later records win, so a
        resumed re-run of a failed cell supersedes the failure)."""
        return {record["key"]: record for record in self.records()
                if record.get("event") == "cell" and "key" in record}

    def results(self) -> dict[str, dict[str, Any]]:
        """The cells that need no simulation: each key's latest ``cell``
        record, when it is ``ok`` and carries a result."""
        return {key: record for key, record in self.load().items()
                if record.get("status") == "ok"
                and record.get("result") is not None}

    def _skip(self, line_no: int, why: str) -> None:
        self.skipped_records += 1
        warnings.warn(
            f"journal {self.path}: skipping corrupt record at line "
            f"{line_no} ({why}; every other record still loads)",
            RuntimeWarning, stacklevel=3)
        if self._p_skip is not None:
            self._p_skip.emit(path=str(self.path), line=line_no)

    def append(self, record: dict[str, Any]) -> None:
        """Stamp *record* in place with ``v`` and ``ts`` (unless set) and
        the ``sha256`` of its JSON, then append it durably."""
        record.setdefault("v", JOURNAL_VERSION)
        record.setdefault("ts", round(time.time(), 3))
        # The digest covers the record as it reads back from its line.
        record["sha256"] = _digest(
            json.loads(json.dumps(record, default=str)))
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

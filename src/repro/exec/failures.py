"""Structured failure records for resilient experiment execution.

Every way a cell can die is folded into one of three kinds:

* ``crash``          — the worker raised or the process died (segfault,
                       OOM-kill, injected fault);
* ``hang``           — the wall-clock timeout fired, or the simulator's
                       own watchdog fence raised
                       :class:`~repro.cores.base.SimulationError`;
* ``invalid-config`` — the cell's configuration was rejected before any
                       simulation ran (bad field value, unknown workload);
* ``quarantined``    — the serving layer's circuit breaker short-circuited
                       the cell: its config hash crashed or hung repeatedly
                       and is refused without running (the failure message
                       carries the recorded history).

``crash`` and ``hang`` are presumed transient and eligible for retry;
``invalid-config`` and ``quarantined`` are deterministic verdicts and
never retried.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

CRASH = "crash"
HANG = "hang"
INVALID_CONFIG = "invalid-config"
QUARANTINED = "quarantined"

FAILURE_KINDS = (CRASH, HANG, INVALID_CONFIG, QUARANTINED)

# Kinds worth retrying: transient by presumption.  A deterministic bug
# fails again and ends up in the journal as failed — the bounded retry
# just absorbs flaky environments.
RETRY_KINDS = (CRASH, HANG)


@dataclass
class RunFailure:
    """One cell's terminal failure, JSON-ready for journals and reports."""

    key: str
    workload: str
    technique: str
    kind: str                      # one of FAILURE_KINDS
    message: str
    attempts: int = 1
    elapsed_s: float = 0.0
    cycle: float | None = None     # simulator context when available
    pc: int | None = None
    traceback: str | None = None
    progress: dict | None = None   # last in-flight frame before death

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"RunFailure.kind must be one of {FAILURE_KINDS}, "
                f"got {self.kind!r}")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        fields = {k: data.get(k) for k in
                  ("key", "workload", "technique", "kind", "message")}
        fields.update(attempts=data.get("attempts", 1),
                      elapsed_s=data.get("elapsed_s", 0.0),
                      cycle=data.get("cycle"), pc=data.get("pc"),
                      traceback=data.get("traceback"),
                      progress=data.get("progress"))
        return cls(**fields)

    def __str__(self) -> str:
        where = f"{self.workload}/{self.technique}"
        tries = (f" after {self.attempts} attempts"
                 if self.attempts > 1 else "")
        return f"{where}: {self.kind}{tries} — {self.message}"


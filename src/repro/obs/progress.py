"""In-flight progress reporting for long simulations.

A multi-minute SVR cell is a black box between submission and verdict:
probes, spans and metrics all surface *after* the run.  This module adds
the live counterpart — a :class:`ProgressReporter` that the core run
loop samples every :data:`INTERVAL_INSTRUCTIONS` committed instructions,
emitting small JSON-ready frames (plain dicts: simulated cycle,
committed instructions, IPC-so-far, phase, SVR episode count) to a
caller-supplied sink.  ``repro serve``'s worker pool is the one
streamer: its workers forward frames over their result pipe, and the
parent then holds a live per-cell picture and can tell a *stalled*
simulation (the simulated cycle stopped advancing) from a merely *slow*
one.

Cost discipline mirrors the probe bus: when no reporter is passed, the
core run loop runs each window as one chunk and never samples.  With a
reporter it runs the window in chunks of the cadence and calls
:meth:`ProgressReporter.sample` between chunks; the sample is further
rate-limited on the wall clock (:data:`MIN_INTERVAL_S`), so even a fast
simulator emits a few frames per second at most.

The two cadences are module constants.  A reporter reads them when it
is built, so a test that needs faster frames patches them before the
pool forks its workers.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = [
    "INTERVAL_INSTRUCTIONS",
    "MIN_INTERVAL_S",
    "ProgressReporter",
    "advancing",
]

# Committed instructions between samples.  Small enough that a
# tiny-scale run still produces several frames, large enough that the
# chunked loop, not the sample calls, dominates the cost.
INTERVAL_INSTRUCTIONS = 1_000

# Wall-clock floor between emitted frames: a fast simulator reaches the
# end of a chunk thousands of times a second; the rate limit keeps the
# pipe traffic (and the parent's bookkeeping) bounded.
MIN_INTERVAL_S = 0.2


def _episodes_of(core: Any) -> int:
    svr = getattr(core, "svr", None)
    if svr is not None:
        return svr.stats.prm_rounds
    vr = getattr(core, "vr", None)
    if vr is not None:
        return vr.stats.episodes
    return 0


class ProgressReporter:
    """Sampled from a core run loop, emits rate-limited progress frames.

    ``emit`` receives each frame; it must never raise into the
    simulation (wrap pipe sends accordingly).  The reporter is
    deliberately *not* shipped across processes — construct it inside
    the worker with a pipe-writing ``emit`` instead.

    A frame's ``cycle`` and ``instructions`` are *lifetime* values
    (monotonic across the warmup and measure windows), so consumers can
    assert forward progress; ``ipc`` is the current window's IPC so
    far, which is what an operator wants to watch converge.
    """

    __slots__ = ("interval", "_emit", "_min_interval_s", "_clock",
                 "_start", "_last_wall", "_max_cycle", "seq", "phase",
                 "workload", "technique", "target_instructions")

    def __init__(self, emit: Callable[[dict[str, Any]], None], *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.interval = INTERVAL_INSTRUCTIONS
        self._emit = emit
        self._min_interval_s = MIN_INTERVAL_S
        self._clock = clock
        self._start = clock()
        self._last_wall = -float("inf")
        self._max_cycle = 0.0
        self.seq = 0
        self.phase = "build"
        self.workload: str | None = None
        self.technique: str | None = None
        self.target_instructions: int | None = None

    def annotate(self, *, workload: str, technique: str,
                 target_instructions: int) -> None:
        """Attach run identity once the harness has resolved it."""
        self.workload = workload
        self.technique = technique
        self.target_instructions = target_instructions

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def sample(self, core: Any,
               force: bool = False) -> dict[str, Any] | None:
        """Build and emit a frame, unless rate-limited (``force`` skips
        the wall-clock limit — used at phase boundaries)."""
        now = self._clock()
        if not force and now - self._last_wall < self._min_interval_s:
            return None
        self._last_wall = now
        stats = core.stats
        # A stats-window reset (warmup -> measure) can pull end_cycle
        # back under the previous window's completion horizon; clamp so
        # the published lifetime cycle never runs backwards.
        self._max_cycle = max(self._max_cycle, stats.end_cycle)
        frame = {
            "seq": self.seq,
            "phase": self.phase,        # build | warmup | measure | done
            "workload": self.workload,
            "technique": self.technique,
            "cycle": self._max_cycle,
            "instructions": core.lifetime_instructions,
            "target_instructions": self.target_instructions,
            "ipc": stats.ipc,
            "pc": getattr(core, "pc", None),
            "episodes": _episodes_of(core),  # SVR PRM rounds / VR episodes
            "wall_s": round(now - self._start, 6),
        }
        self.seq += 1
        self._emit(frame)
        return frame

    def finish(self, core: Any) -> dict[str, Any] | None:
        """Emit a final forced frame with phase ``done``."""
        self.phase = "done"
        return self.sample(core, force=True)


def advancing(previous: dict[str, Any] | None,
              current: dict[str, Any] | None) -> bool:
    """Is the simulated clock of *current* ahead of *previous*?

    The stall-detection primitive: a run whose frames keep arriving but
    whose simulated cycle is frozen is wedged (e.g. an infinite
    host-side loop), while one with an advancing cycle is merely slow.
    Missing frames count as not advancing.
    """
    if not previous or not current:
        return False
    return (float(current.get("cycle", 0.0)) > float(previous.get("cycle", 0.0))
            or int(current.get("instructions", 0))
            > int(previous.get("instructions", 0)))

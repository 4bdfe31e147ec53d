"""SVR accuracy monitor (Section IV-A7).

L1 prefetch tags track, for every line SVR brings in, whether the core used
it before eviction.  After a warmup of 100 uses-or-evictions, if accuracy
drops below 50% all loads are blocked from triggering SVR; the ban lifts at
the next periodic reset so SVR can try again in a new program phase.

The monitor subscribes to the memory hierarchy's prefetch-tag events
(``origin == 'svr'`` only).
"""

from __future__ import annotations


class AccuracyMonitor:
    """Sliding-phase accuracy gate for SVR triggering."""

    def __init__(self, threshold: float = 0.5, warmup_events: int = 100,
                 reset_interval: int = 50_000, enabled: bool = True) -> None:
        self.threshold = threshold
        self.warmup_events = warmup_events
        self.reset_interval = reset_interval
        self.monitor_enabled = enabled
        self.useful = 0
        self.useless = 0
        self.banned = False
        self.bans = 0
        self._instructions_since_reset = 0

    # -- hierarchy listener interface ----------------------------------------

    def on_useful(self, origin: str) -> None:
        if origin == "svr":
            self.useful += 1
            self._evaluate()

    def on_useless(self, origin: str) -> None:
        if origin == "svr":
            self.useless += 1
            self._evaluate()

    # -- gate ------------------------------------------------------------------

    def _evaluate(self) -> None:
        if not self.monitor_enabled or self.banned:
            return
        events = self.useful + self.useless
        if events < self.warmup_events:
            return
        if self.useful / events < self.threshold:
            self.banned = True
            self.bans += 1

    def allow_trigger(self) -> bool:
        return not self.banned

    def tick(self, instructions: int = 1) -> None:
        """Advance the periodic-reset clock (one call per committed instr)."""
        self._instructions_since_reset += instructions
        if self._instructions_since_reset >= self.reset_interval:
            self._instructions_since_reset = 0
            self.banned = False
            self.useful = 0
            self.useless = 0

    @property
    def accuracy(self) -> float:
        events = self.useful + self.useless
        return self.useful / events if events else 1.0

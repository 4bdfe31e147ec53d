"""Speculative register file (Section IV-A3).

K wide registers, each holding N 64-bit lanes with per-lane value and
ready-time (the scoreboard return-counter of Section IV-A4 collapses to
per-lane readiness in our event-driven model).  SRF entries are
deliberately under-provisioned; when they run out SVR recycles the entry
backing the least-recently-read architectural register, while the DVR
ablation policy refuses and simply stops vectorizing new values.

Lane state is one plain list per entry — ``values[srf_id][lane]``,
``ready[srf_id][lane]``, ``valid[srf_id][lane]`` — because the SVR unit
reads and writes it one lane at a time.  Releasing an entry (one or all)
invalidates its lanes: a reused entry can never leak a stale
``valid=True`` lane from a previous mapping.
"""

from __future__ import annotations

from repro.svr.config import RecyclingPolicy
from repro.svr.taint_tracker import TaintTracker


class SpeculativeRegisterFile:
    """K x N x 64-bit transient storage with recycling."""

    def __init__(self, entries: int, lanes: int,
                 policy: RecyclingPolicy = RecyclingPolicy.LRU) -> None:
        self._lanes = lanes
        self._policy = policy
        self.values = [[0] * lanes for _ in range(entries)]
        self.ready = [[0.0] * lanes for _ in range(entries)]
        self.valid = [[False] * lanes for _ in range(entries)]
        self._free = list(range(entries))
        self.allocations = 0
        self.recycles = 0
        self.allocation_failures = 0

    @property
    def lanes(self) -> int:
        return self._lanes

    @property
    def num_entries(self) -> int:
        return len(self.valid)

    def _reset_entry(self, srf_id: int) -> None:
        lanes = self._lanes
        self.values[srf_id] = [0] * lanes
        self.ready[srf_id] = [0.0] * lanes
        self.valid[srf_id] = [False] * lanes

    def allocate(self, reg: int, taint: TaintTracker) -> int | None:
        """Get an SRF entry for architectural register *reg*.

        Reuses an existing mapping (footnote 1: only one copy of an
        architectural register can be live at once).  On exhaustion, LRU
        policy steals from the least-recently-read mapped register; DVR
        policy fails, leaving *reg* tainted-but-unmapped.
        """
        tentry = taint.entry(reg)
        if tentry.mapped:
            self._reset_entry(tentry.srf_id)
            return tentry.srf_id
        if self._free:
            srf_id = self._free.pop()
            self._reset_entry(srf_id)
            self.allocations += 1
            return srf_id
        if self._policy is RecyclingPolicy.DVR:
            self.allocation_failures += 1
            return None
        victim_reg = taint.lru_victim()
        if victim_reg is None:
            self.allocation_failures += 1
            return None
        srf_id = taint.srf_of(victim_reg)
        taint.unmap(victim_reg)
        self._reset_entry(srf_id)
        self.recycles += 1
        return srf_id

    def release(self, srf_id: int) -> None:
        self.valid[srf_id] = [False] * self._lanes
        if srf_id not in self._free:
            self._free.append(srf_id)

    def release_all(self) -> None:
        entries = self.num_entries
        # Invalidate every lane: a reused entry must never expose a stale
        # valid=True lane if any read bypasses the allocate-time reset.
        self.valid = [[False] * self._lanes for _ in range(entries)]
        self._free = list(range(entries))

    def write_lane(self, srf_id: int, lane: int, value: int,
                   ready: float) -> None:
        self.values[srf_id][lane] = value
        self.ready[srf_id][lane] = ready
        self.valid[srf_id][lane] = True

    def read_lane(self, srf_id: int, lane: int) -> tuple[int, float, bool]:
        return (self.values[srf_id][lane], self.ready[srf_id][lane],
                self.valid[srf_id][lane])

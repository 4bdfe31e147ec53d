"""The timed memory hierarchy: L1-D + L2 + DRAM + TLB + prefetchers.

This is the component every core model talks to.  It is event-driven: an
access at simulated time *t* returns an :class:`AccessOutcome` whose
``completion`` accounts for cache latencies, MSHR occupancy, DRAM bandwidth
and latency, and TLB walks.  Lines are inserted eagerly at miss time with
their availability recorded in a pending map, which later accesses to the
same line observe (miss merging / hit-under-fill).

Prefetch-tag bookkeeping for the accuracy metric of Fig 13a lives here: a
line brought in by any prefetcher is *useful* on its first demand touch and
*useless* if the L2 evicts it untouched.  A listener (SVR's accuracy
monitor) is told of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import AccessOutcome, Cache, MshrPool
from repro.memory.dram import DramModel
from repro.memory.imp import IndirectMemoryPrefetcher
from repro.memory.stride_prefetcher import StridePrefetcher
from repro.memory.tlb import TlbHierarchy
from repro.obs.probes import default_bus

PREFETCH_ORIGINS = ("stride", "imp", "svr", "vr")

# Expired `_pending` entries are swept every this-many accesses (and at a
# 4096-entry high-water mark), so long runs never carry thousands of dead
# in-flight records that every L1 hit would otherwise probe.
_PURGE_INTERVAL = 2048
# Opportunistic sweeps only drop entries expired by more than this margin.
# Access times are not monotonic (prefetches run at future completion
# times), so an entry merely past its completion could still be merged by a
# later-arriving access carrying an earlier timestamp; one that has been
# dead for 64k cycles cannot, as no in-flight skew approaches that.
_PURGE_MARGIN = 1 << 16


@dataclass
class MemoryConfig:
    """Knobs for the hierarchy; defaults follow Table III."""

    line_bytes: int = 64
    l1_size: int = 64 << 10
    l1_assoc: int = 4
    l1_latency: float = 2.0
    l1_mshrs: int = 16
    l2_size: int = 512 << 10
    l2_assoc: int = 8
    l2_latency: float = 12.0
    dram_latency_ns: float = 45.0
    dram_bandwidth_gbps: float = 50.0
    frequency_ghz: float = 2.0
    dtlb_entries: int = 16
    stlb_entries: int = 2048
    page_table_walkers: int = 4
    stride_prefetcher: bool = True
    stride_degree: int = 2
    imp_prefetcher: bool = False
    imp_degree: int = 16


@dataclass
class HierarchyStats:
    """Aggregate counters used by the figures and the energy model."""

    loads: int = 0
    stores: int = 0
    l1_load_hits: int = 0
    l2_load_hits: int = 0
    dram_loads: int = 0
    prefetches_issued: dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in PREFETCH_ORIGINS})
    prefetches_dropped: dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in PREFETCH_ORIGINS})
    prefetch_useful: dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in PREFETCH_ORIGINS})
    prefetch_useless: dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in PREFETCH_ORIGINS})
    dram_fetches: dict[str, int] = field(
        default_factory=lambda: {"demand": 0, "stride": 0, "imp": 0,
                                 "svr": 0, "vr": 0})
    writebacks: int = 0

    def accuracy(self, origin: str) -> float:
        """Useful / (useful + useless) for one prefetch origin."""
        useful = self.prefetch_useful[origin]
        useless = self.prefetch_useless[origin]
        total = useful + useless
        return useful / total if total else 1.0


class PrefetcherHook:
    """Adapter protocol for prefetchers attached to the hierarchy.

    Subclasses observe every committed demand load and return byte
    addresses to prefetch.  ``origin`` must be in
    :data:`PREFETCH_ORIGINS`; ``needs_value`` requests the loaded value
    (the hierarchy reads functional memory only when some hook wants it).
    """

    origin = "stride"
    drop_on_full = True
    needs_value = False

    def observe_load(self, pc: int, addr: int, value: int | None,
                     level: str):
        """Return an iterable of byte addresses to prefetch."""
        raise NotImplementedError


class _StrideHook(PrefetcherHook):
    origin = "stride"

    def __init__(self, prefetcher: StridePrefetcher) -> None:
        self.prefetcher = prefetcher

    def observe_load(self, pc, addr, value, level):
        return self.prefetcher.train(pc, addr)


class _ImpHook(PrefetcherHook):
    origin = "imp"
    needs_value = True

    def __init__(self, prefetcher: IndirectMemoryPrefetcher) -> None:
        self.prefetcher = prefetcher

    def observe_load(self, pc, addr, value, level):
        return self.prefetcher.observe_load(pc, addr, value,
                                            missed=level != "l1")


class MemoryHierarchy:
    """Timed L1/L2/DRAM with MSHRs, TLBs and attached prefetchers."""

    def __init__(self, memory, config: MemoryConfig | None = None,
                 bus=None) -> None:
        self.config = config or MemoryConfig()
        cfg = self.config
        self.memory = memory
        self.bus = bus if bus is not None else default_bus()
        self._p_load = self.bus.probe("mem.load")
        self.l1 = Cache("L1-D", cfg.l1_size, cfg.l1_assoc, cfg.line_bytes)
        self.l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, cfg.line_bytes)
        self.mshrs = MshrPool(cfg.l1_mshrs)
        self.dram = DramModel(cfg.dram_latency_ns, cfg.dram_bandwidth_gbps,
                              cfg.frequency_ghz, cfg.line_bytes)
        self.dram.probe = self.bus.probe("dram.access")
        self.tlb = TlbHierarchy(self.dram, cfg.dtlb_entries,
                                cfg.stlb_entries, cfg.page_table_walkers)
        self.tlb.probe_walk = self.bus.probe("tlb.walk")
        self.stride_pf = (StridePrefetcher(degree=cfg.stride_degree,
                                           line_bytes=cfg.line_bytes)
                          if cfg.stride_prefetcher else None)
        self.imp = (IndirectMemoryPrefetcher(memory, degree=cfg.imp_degree,
                                             line_bytes=cfg.line_bytes)
                    if cfg.imp_prefetcher else None)
        self._hooks: list[PrefetcherHook] = []
        if self.stride_pf is not None:
            self._hooks.append(_StrideHook(self.stride_pf))
        if self.imp is not None:
            self._hooks.append(_ImpHook(self.imp))
        self.stats = HierarchyStats()
        self.accuracy_listener = None  # SVR monitor hooks in here.
        # line -> (completion time, level string) for in-flight fills
        self._pending: dict[int, tuple[float, str]] = {}
        # line -> origin, for prefetched-but-unused lines
        self._pf_outstanding: dict[int, str] = {}
        # Hot-path caches: per-access attribute chains hoisted once.
        self._line_bytes = cfg.line_bytes
        self._purge_countdown = _PURGE_INTERVAL
        self._hooks_need_value = any(h.needs_value for h in self._hooks)

    def attach_prefetcher(self, hook: PrefetcherHook) -> None:
        """Attach a user-defined :class:`PrefetcherHook` (plug-in API)."""
        if hook.origin not in PREFETCH_ORIGINS:
            raise ValueError(f"unknown prefetch origin: {hook.origin!r}")
        self._hooks.append(hook)
        self._hooks_need_value = any(h.needs_value for h in self._hooks)

    def reset_stats(self) -> None:
        """Start a fresh measurement window; cache/TLB *state* is kept."""
        self.stats = HierarchyStats()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.dram.reset_stats()
        self.tlb.walks = 0

    # -- internals ------------------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def _record_pf_touch(self, line: int, outcome: AccessOutcome) -> None:
        origin = self._pf_outstanding.pop(line, None)
        if origin is not None:
            self.stats.prefetch_useful[origin] += 1
            outcome.prefetch_hit = True
            if self.accuracy_listener is not None:
                self.accuracy_listener.on_useful(origin)

    def _evict_from_l2(self, victim_line: int, meta, time: float) -> None:
        if meta.dirty:
            self.stats.writebacks += 1
            self.dram.access(time)  # writeback occupies bandwidth only
        origin = self._pf_outstanding.pop(victim_line, None)
        if origin is not None:
            self.stats.prefetch_useless[origin] += 1
            if self.accuracy_listener is not None:
                self.accuracy_listener.on_useless(origin)

    def _purge_pending(self, now: float) -> None:
        """Sweep expired in-flight entries.

        Called from :meth:`_access` on a countdown cadence (every
        ``_PURGE_INTERVAL`` accesses) and whenever the map crosses the
        4096-entry high-water mark; the per-access cost is one decrement
        and compare.  Cadence sweeps apply the ``_PURGE_MARGIN`` safety
        margin; the high-water sweep drops everything expired, exactly as
        the pre-cadence implementation did.
        """
        pending = self._pending
        cutoff = now if len(pending) > 4096 else now - _PURGE_MARGIN
        expired = [ln for ln, (t, _) in pending.items() if t <= cutoff]
        for ln in expired:
            del pending[ln]
        self._purge_countdown = _PURGE_INTERVAL

    def _fill(self, line: int, time: float, *, dirty: bool, prefetched: bool,
              origin: str) -> tuple[float, str]:
        """Walk L2 then DRAM for *line*; insert into both levels.

        Returns ``(completion, level)`` where *level* names the satisfying
        level ('l2' or 'dram').
        """
        cfg = self.config
        l2_meta = self.l2.lookup(line)
        if l2_meta is not None:
            completion = time + cfg.l1_latency + cfg.l2_latency
            level = "l2"
            if dirty:
                l2_meta.dirty = True
        else:
            completion = self.dram.access(time + cfg.l1_latency + cfg.l2_latency)
            level = "dram"
            key = origin if prefetched else "demand"
            self.stats.dram_fetches[key] += 1
            victim = self.l2.insert(line, dirty=dirty, prefetched=prefetched,
                                    origin=origin)
            if victim is not None:
                self._evict_from_l2(victim[0], victim[1], completion)
        victim = self.l1.insert(line, dirty=dirty, prefetched=prefetched,
                                origin=origin)
        # L1 evictions write back into L2 (non-inclusive victim traffic).
        # The victim keeps its prefetch tag so an untouched prefetched line
        # still gets charged as useless when the L2 finally drops it.
        if victim is not None and victim[1].dirty:
            victim_meta = victim[1]
            l2_victim = self.l2.insert(victim[0], dirty=True,
                                       prefetched=victim_meta.prefetched,
                                       origin=victim_meta.origin)
            if l2_victim is not None:
                self._evict_from_l2(l2_victim[0], l2_victim[1], completion)
        return completion, level

    def _access(self, addr: int, time: float, pc: int, *, is_store: bool,
                prefetched: bool, origin: str,
                drop_on_full: bool) -> AccessOutcome | None:
        cfg = self.config
        line = addr // self._line_bytes
        self._purge_countdown -= 1
        if self._purge_countdown <= 0 or len(self._pending) > 4096:
            self._purge_pending(time)

        ready = self.tlb.translate(addr, time)
        meta = self.l1.lookup(line)
        if meta is not None:
            outcome = AccessOutcome(ready + cfg.l1_latency, "l1")
            pending = self._pending.get(line)
            if pending is not None:
                completion, level = pending
                if completion > outcome.completion:
                    # Line is in flight: merge with the outstanding miss.
                    outcome = AccessOutcome(completion, level)
                else:
                    del self._pending[line]
            if not prefetched and self._pf_outstanding:
                self._record_pf_touch(line, outcome)
            if is_store:
                self.l1.mark_dirty(line)
            return outcome

        # L1 miss.  Prefetches may be dropped rather than queue for MSHRs.
        if prefetched and drop_on_full and self.mshrs.would_block(ready):
            self.stats.prefetches_dropped[origin] += 1
            return None
        slot, start = self.mshrs.allocate(ready)
        completion, level = self._fill(line, start, dirty=is_store,
                                       prefetched=prefetched, origin=origin)
        self.mshrs.release(slot, completion)
        self._pending[line] = (completion, level)
        outcome = AccessOutcome(completion, level)
        if prefetched:
            # First prefetch wins: a second prefetcher requesting an
            # already-outstanding line must not steal the accuracy credit.
            self._pf_outstanding.setdefault(line, origin)
        elif self._pf_outstanding:
            self._record_pf_touch(line, outcome)
        return outcome

    # -- public API -------------------------------------------------------------

    def load(self, addr: int, time: float, pc: int) -> AccessOutcome:
        """Timed demand load; trains the attached prefetchers."""
        self.stats.loads += 1
        outcome = self._access(addr, time, pc, is_store=False,
                               prefetched=False, origin="", drop_on_full=False)
        assert outcome is not None
        if outcome.level == "l1":
            self.stats.l1_load_hits += 1
        elif outcome.level == "l2":
            self.stats.l2_load_hits += 1
        else:
            self.stats.dram_loads += 1
        if self._p_load.enabled:
            self._p_load.emit(addr=addr, pc=pc, time=time,
                              level=outcome.level,
                              completion=outcome.completion,
                              latency=outcome.completion - time)

        if self._hooks:
            value = None
            if self._hooks_need_value:
                value = self.memory.read_word(addr)
            for hook in self._hooks:
                for target in hook.observe_load(pc, addr, value,
                                                outcome.level):
                    self.prefetch(target, outcome.completion, hook.origin,
                                  drop_on_full=hook.drop_on_full)
        return outcome

    def store(self, addr: int, time: float, pc: int) -> AccessOutcome:
        """Timed store (write-allocate); the cores treat these as buffered."""
        self.stats.stores += 1
        outcome = self._access(addr, time, pc, is_store=True,
                               prefetched=False, origin="", drop_on_full=False)
        assert outcome is not None
        return outcome

    def prefetch(self, addr: int, time: float, origin: str,
                 drop_on_full: bool = True) -> float | None:
        """Issue a prefetch; returns completion time or None if dropped.

        SVR passes ``drop_on_full=False`` — its transient loads wait for an
        MSHR like real loads, which is what makes the Fig 17 MSHR sweep
        bite.
        """
        if origin not in PREFETCH_ORIGINS:
            raise ValueError(f"unknown prefetch origin: {origin}")
        self.stats.prefetches_issued[origin] += 1
        outcome = self._access(addr, time, 0, is_store=False, prefetched=True,
                               origin=origin, drop_on_full=drop_on_full)
        return None if outcome is None else outcome.completion

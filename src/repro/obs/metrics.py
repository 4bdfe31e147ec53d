"""Metrics registry: hierarchical counters, gauges and log2 histograms.

Metric names are dotted paths (``mem.load.latency``, ``svr.prm.rounds``);
the registry is flat but the naming scheme is hierarchical so snapshots
group naturally.  Histograms bucket by powers of two, which suits the
quantities this simulator cares about (load latencies spanning 2..200
cycles, vector lengths 1..128) and keeps snapshots small and deterministic.

A run's counters come from one place, the stats objects the simulator
keeps anyway (``CoreStats``, ``HierarchyStats``, ``SvrStats``):
:func:`read_stats_counters` reads them under their metric names when the
measured window closes.  Probes feed only what needs the events
themselves: :func:`install_standard_metrics` subscribes the latency,
queue-wait, walk, PRM and vector-length histograms plus the few counters
no stats object keeps, and :func:`install_exec_metrics` the execution
layer's cell, failure, retry and timeout counters.
"""

from __future__ import annotations

import re
from typing import Any

from repro.obs.probes import ProbeBus, Subscription


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (e.g. an occupancy sampled at snapshot time)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Log2-bucketed histogram: bucket *k* holds values in [2^(k-1), 2^k),
    bucket 0 holds values below 1."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    @staticmethod
    def bucket_of(value: float) -> int:
        if value < 1:
            return 0
        return int(value).bit_length()

    @staticmethod
    def bucket_label(index: int) -> str:
        if index == 0:
            return "[0,1)"
        return f"[{1 << (index - 1)},{1 << index})"

    def observe(self, value: float) -> None:
        idx = self.bucket_of(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {self.bucket_label(i): self.buckets[i]
                        for i in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named metrics with get-or-create accessors and dict snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} is {type(metric).__name__}, "
                            f"not {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict export, sorted by name: counters and gauges become
        numbers, histograms become their bucket dicts."""
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def typed_snapshot(self) -> dict[str, dict[str, Any]]:
        """Kind-tagged export, the cross-process wire format.

        A plain :meth:`snapshot` cannot be merged — a bare number does
        not say whether it sums (counter) or overwrites (gauge).  Worker
        processes ship this form; :func:`merge_typed_snapshots` folds
        them back together.
        """
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {"kind": "histogram", **metric.snapshot()}
            elif isinstance(metric, Gauge):
                out[name] = {"kind": "gauge", "value": metric.value}
            else:
                out[name] = {"kind": "counter", "value": metric.value}
        return out


def _merge_histogram(into: dict[str, Any], snap: dict[str, Any]) -> None:
    into["count"] += snap["count"]
    into["sum"] += snap["sum"]
    for bound in ("min", "max"):
        pick = min if bound == "min" else max
        values = [v for v in (into[bound], snap[bound]) if v is not None]
        into[bound] = pick(values) if values else None
    buckets = into["buckets"]
    for label, count in snap["buckets"].items():
        buckets[label] = buckets.get(label, 0) + count
    into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0


def merge_typed_snapshots(
        snapshots: "list[dict[str, dict[str, Any]]]",
        ) -> dict[str, dict[str, Any]]:
    """Aggregate worker metric snapshots (:meth:`typed_snapshot` form).

    Counters sum, gauges keep the last write (in the order given — pass
    snapshots in a deterministic order for reproducible gauges), and
    log2 histograms merge bucket-wise; the result for counters and
    histograms is therefore identical for any snapshot order.  A name
    changing kind between snapshots is a wiring bug and raises.
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            have = merged.get(name)
            if have is None:
                copy = dict(entry)
                if kind == "histogram":
                    copy["buckets"] = dict(entry["buckets"])
                merged[name] = copy
                continue
            if have["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} is {have['kind']} in one snapshot "
                    f"and {kind} in another")
            if kind == "counter":
                have["value"] += entry["value"]
            elif kind == "gauge":
                have["value"] = entry["value"]
            else:
                _merge_histogram(have, entry)
    return {name: merged[name] for name in sorted(merged)}


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted metric name to the Prometheus charset
    (``serve.request_ms`` -> ``repro_serve_request_ms``)."""
    sanitized = _PROM_BAD_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value: float | None) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_exposition(registry: "MetricsRegistry", *,
                          prefix: str = "repro_",
                          extra_gauges: dict[str, float] | None = None,
                          ) -> str:
    """Render *registry* in the Prometheus text exposition format.

    Counters and gauges map directly; log2 histograms become native
    Prometheus histograms with cumulative ``le`` buckets at the power-of-
    two upper bounds (bucket ``[2^(k-1),2^k)`` contributes to
    ``le="2^k"``), plus the conventional ``+Inf`` / ``_sum`` / ``_count``
    series.  *extra_gauges* lets a caller splice in point-in-time values
    (queue depth, busy workers) that live outside the registry.  Output
    is sorted by metric name, so scrapes diff cleanly.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, body: list[str]) -> None:
        lines.append(f"# HELP {name} repro metric {name}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(body)

    metrics: dict[str, Any] = dict(registry._metrics)
    for raw in sorted(metrics):
        metric = metrics[raw]
        name = prometheus_name(raw, prefix)
        if isinstance(metric, Counter):
            emit(name, "counter", [f"{name} {_prom_value(metric.value)}"])
        elif isinstance(metric, Gauge):
            emit(name, "gauge", [f"{name} {_prom_value(metric.value)}"])
        else:
            body = []
            cumulative = 0
            for idx in sorted(metric.buckets):
                cumulative += metric.buckets[idx]
                upper = 1 << idx if idx > 0 else 1
                body.append(f'{name}_bucket{{le="{upper}"}} {cumulative}')
            body.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            body.append(f"{name}_sum {_prom_value(metric.total)}")
            body.append(f"{name}_count {metric.count}")
            emit(name, "histogram", body)
    for raw in sorted(extra_gauges or {}):
        name = prometheus_name(raw, prefix)
        emit(name, "gauge", [f"{name} {_prom_value(extra_gauges[raw])}"])
    return "\n".join(lines) + "\n"


def typed_to_plain(typed: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Collapse a typed (or merged) snapshot to the plain
    :meth:`MetricsRegistry.snapshot` shape used by reports and tests."""
    out: dict[str, Any] = {}
    for name, entry in typed.items():
        if entry.get("kind") == "histogram":
            out[name] = {k: v for k, v in entry.items() if k != "kind"}
        else:
            out[name] = entry["value"]
    return out


def read_stats_counters(registry: MetricsRegistry, core: Any) -> None:
    """Add the counters of *core*'s measured window to *registry*, read
    off the stats objects the simulator already keeps: the core's, its
    memory hierarchy's (with the DRAM and TLB counts) and, on an SVR
    core, the SVR unit's.  Call once, when the window closes.

    A fixed name is always written; a per-level, per-origin or per-cause
    name only once its count is nonzero, as it would first appear from
    an event.
    """
    counter = registry.counter
    hierarchy = core.hierarchy
    hstats = hierarchy.stats
    svr = getattr(core, "svr", None)
    sstats = svr.stats if svr is not None else None
    fixed = {
        "core.instructions": core.stats.instructions,
        "mem.loads": hstats.loads,
        "mem.stores": hstats.stores,
        "dram.accesses": hierarchy.dram.accesses,
        "tlb.walks": hierarchy.tlb.walks,
        "svr.prm.rounds": sstats.prm_rounds if sstats else 0,
        "svr.svi.lanes": sstats.svi_lanes if sstats else 0,
        "svr.waiting_skips": sstats.waiting_skips if sstats else 0,
        "svr.gate_blocks": sstats.rounds_blocked_by_monitor if sstats else 0,
        "svr.accuracy_bans": svr.monitor.bans if svr is not None else 0,
    }
    for name, value in fixed.items():
        counter(name).inc(value)
    counts = {
        "mem.loads.l1": hstats.l1_load_hits,
        "mem.loads.l2": hstats.l2_load_hits,
        "mem.loads.dram": hstats.dram_loads,
    }
    for outcome, per_origin in (("issued", hstats.prefetches_issued),
                                ("dropped", hstats.prefetches_dropped),
                                ("useful", hstats.prefetch_useful),
                                ("useless", hstats.prefetch_useless)):
        for origin, value in per_origin.items():
            counts[f"mem.prefetch.{origin}.{outcome}"] = value
    if sstats is not None:
        for cause, value in sstats.terminations.items():
            counts[f"svr.prm.terminations.{cause}"] = value
    for name, value in counts.items():
        if value:
            counter(name).inc(value)


def install_standard_metrics(bus: ProbeBus,
                             registry: MetricsRegistry) -> list[Subscription]:
    """Subscribe the simulator's event metrics to *bus*: the histograms,
    and the counters no stats object keeps.  Returns the subscriptions so
    a caller can detach them when its window closes."""
    counter = registry.counter
    histogram = registry.histogram

    window_stalls = counter("core.window_stalls")
    window_stall_hist = histogram("core.window_stall.cycles")
    load_latency = histogram("mem.load.latency")
    dram_wait = histogram("dram.queue_wait")
    tlb_walk_latency = histogram("tlb.walk.latency")
    vector_length = histogram("svr.prm.vector_length")
    prm_duration = histogram("svr.prm.duration_cycles")
    svi_group = histogram("svr.svi.group_lanes")
    run_length = histogram("predictor.stride.run_length")
    lb_decisions = counter("predictor.loop_bound.decisions")
    lb_length = histogram("predictor.loop_bound.length")
    watchdog_trips = counter("core.watchdog_trips")

    def on_window_stall(_name: str, ev: dict) -> None:
        window_stalls.inc()
        window_stall_hist.observe(ev["cycles"])

    def on_load(_name: str, ev: dict) -> None:
        load_latency.observe(ev["latency"])

    def on_dram(_name: str, ev: dict) -> None:
        dram_wait.observe(ev["start"] - ev["time"])

    def on_tlb_walk(_name: str, ev: dict) -> None:
        tlb_walk_latency.observe(ev["completion"] - ev["time"])

    def on_prm_enter(_name: str, ev: dict) -> None:
        vector_length.observe(ev["length"])

    def on_prm_exit(_name: str, ev: dict) -> None:
        prm_duration.observe(ev["duration"])

    def on_svi(_name: str, ev: dict) -> None:
        svi_group.observe(ev["lanes"])

    def on_stride_run(_name: str, ev: dict) -> None:
        run_length.observe(ev["run_length"])

    def on_loop_bound(_name: str, ev: dict) -> None:
        lb_decisions.inc()
        lb_length.observe(ev["length"])
        counter(f"predictor.loop_bound.policy.{ev['policy']}").inc()

    def on_watchdog(_name: str, ev: dict) -> None:
        watchdog_trips.inc()
        counter(f"core.watchdog_trips.{ev['kind']}").inc()

    wiring = {
        "core.window_stall": on_window_stall,
        "mem.load": on_load,
        "dram.access": on_dram,
        "tlb.walk": on_tlb_walk,
        "svr.prm_enter": on_prm_enter,
        "svr.prm_exit": on_prm_exit,
        "svr.svi": on_svi,
        "predictor.stride_run": on_stride_run,
        "predictor.loop_bound": on_loop_bound,
        "core.watchdog": on_watchdog,
    }
    return [bus.subscribe(name, fn) for name, fn in wiring.items()]


def install_exec_metrics(bus: ProbeBus,
                         registry: MetricsRegistry) -> list[Subscription]:
    """Subscribe the execution layer's counters (cells, failures,
    retries, wall-clock kills, skipped journal records) to *bus*, the
    bus a :class:`repro.exec.ExecConfig` or ``repro serve`` reports on."""
    counter = registry.counter
    exec_cells = counter("exec.cells")
    exec_cell_elapsed = registry.histogram("exec.cell.elapsed_s")
    exec_failures = counter("exec.failures")
    exec_retries = counter("exec.retries")
    exec_timeouts = counter("exec.timeouts")
    journal_skips = counter("exec.journal_skipped_records")

    def on_exec_cell(_name: str, ev: dict) -> None:
        exec_cells.inc()
        if ev.get("cached"):
            counter("exec.cells.cached").inc()
        else:
            exec_cell_elapsed.observe(ev.get("elapsed_s", 0.0))

    def on_exec_failure(_name: str, ev: dict) -> None:
        exec_failures.inc()
        counter(f"exec.failures.{ev['kind']}").inc()

    def on_exec_retry(_name: str, _ev: dict) -> None:
        exec_retries.inc()

    def on_exec_timeout(_name: str, _ev: dict) -> None:
        exec_timeouts.inc()

    def on_journal_skip(_name: str, _ev: dict) -> None:
        journal_skips.inc()

    wiring = {
        "exec.cell": on_exec_cell,
        "exec.failure": on_exec_failure,
        "exec.retry": on_exec_retry,
        "exec.timeout": on_exec_timeout,
        "exec.journal.skip": on_journal_skip,
    }
    return [bus.subscribe(name, fn) for name, fn in wiring.items()]

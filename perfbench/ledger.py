"""Per-layer host-time ledger for the traced run.

:func:`install` wraps each layer's public boundary at the name its caller
binds (``repro.cores.inorder`` imports ``execute`` by name, so that is
where ``execute`` is patched; methods are patched on their class).  Every
wrapped call pushes a frame on one stack; when it returns, its *self*
time (duration minus the time of the wrapped calls it made) is added to a
``(parent layer, boundary)`` counter.  Self times therefore sum exactly to
the time of the outermost frame.  Coarse boundaries (the sweep, each
cell, workload builds, core windows, ...) also keep one span each, tagged
with the id ``<RunSpec.key>/a<attempt>`` of the cell they belong to.

Forked ``run_cells`` workers inherit the wrappers.  A worker resets its
copy of the ledger when it starts and writes it to ``worker_dir`` just
before it sends its terminal message; :meth:`Ledger.merge_workers` folds
those files back in, moving the time the workers spent inside wrapped
calls out of the parent's ``exec`` self time.

Everything stays in memory until the traced sweep ends.
"""

from __future__ import annotations

import json
import multiprocessing.process
import os
import time
from collections import Counter
from pathlib import Path

LAYERS = ("exec", "obs", "workloads", "analysis", "harness", "cores",
          "isa", "memory", "svr", "branch")

# Boundaries that keep an individual span; the rest (once or more per
# simulated instruction) only feed the counters.
SPAN_BOUNDARIES = frozenset({
    "exec.run_cells", "exec.spawn", "obs.capture_run", "obs.snapshot",
    "harness.execute_spec", "harness.run", "harness.energy",
    "workloads.build", "analysis.plan", "cores.run",
})


class Ledger:
    """Frame stack, counters and spans of one process."""

    def __init__(self, worker_dir: Path) -> None:
        # A frame is [layer, boundary, time of wrapped children].  The
        # root frame stands for code outside any wrapped call.
        self.root = ["other", "", 0.0]
        self.stack = [self.root]
        # (parent layer, boundary) -> [calls, self seconds, total seconds]
        self.calls: dict[tuple[str, str], list] = {}
        self.spans: list[dict] = []
        # Work counts read off the cores' own stats at the end of every
        # window (warmup and measured).
        self.counts: Counter = Counter()
        self.cell = ""
        self.worker_dir = worker_dir
        self._in_worker = False
        # Time merged workers spent inside wrapped calls (see
        # merge_workers).
        self.worker_wrapped_s = 0.0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, boundary: str, fn, on_enter=None, on_exit=None):
        """*fn*, timed as *boundary* (``"<layer>.<name>"``).

        *on_enter* and *on_exit* receive the call's positional arguments.
        """
        layer = boundary.partition(".")[0]
        stack, calls, spans = self.stack, self.calls, self.spans
        perf = time.perf_counter
        keep_span = boundary in SPAN_BOUNDARIES

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            cell = self.cell if keep_span else None
            frame = [layer, boundary, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[2] += dt
                key = (parent[0], boundary)
                rec = calls.get(key)
                if rec is None:
                    rec = calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[2]
                rec[2] += dt
                if keep_span:
                    spans.append({"name": boundary, "parent": parent[1],
                                  "cell": cell, "pid": os.getpid(),
                                  "start": t0, "dur": dt,
                                  "self": dt - frame[2]})
                if on_exit is not None:
                    on_exit(args)

        return traced

    def patch(self, owner, attr: str, boundary: str, **hooks) -> None:
        setattr(owner, attr, self.wrap(boundary, getattr(owner, attr),
                                       **hooks))

    # -- hooks -------------------------------------------------------------

    def enter_sweep(self, args) -> None:
        self.cell = ""

    def _enter_spawn(self, args) -> None:
        # run_cells names each worker "repro-exec-<key>-a<attempt>".
        key, _, attempt = args[0].name.rpartition("-a")
        self.cell = f"{key.removeprefix('repro-exec-')}/a{attempt}"

    def _enter_cell(self, args) -> None:
        capture = args[0]
        self.cell = f"{capture.spec.key}/a{capture.attempt}"

    def _leave_snapshot(self, args) -> None:
        # A worker sends its terminal message right after the snapshot.
        if self._in_worker:
            self._write_worker()

    def _end_window(self, args) -> None:
        core = args[0]
        self.counts["instructions"] += core.stats.instructions
        svr = getattr(core, "svr", None)
        if svr is not None:
            self.counts["svi_lanes"] += svr.stats.svi_lanes
            self.counts["prm_rounds"] += svr.stats.prm_rounds

    # -- forked workers ----------------------------------------------------

    def begin_worker(self) -> None:
        """Drop the state a forked worker inherited from its parent."""
        self.root[:] = ["exec", "exec.worker", 0.0]
        del self.stack[1:]
        self.calls.clear()
        self.spans.clear()
        self.counts.clear()
        self.cell = ""
        self._in_worker = True

    def _write_worker(self) -> None:
        payload = {
            "wrapped_s": self.root[2],
            "calls": [[p, b, *rec] for (p, b), rec in self.calls.items()],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(payload))

    def merge_workers(self) -> int:
        """Fold every worker file into this ledger; returns the count."""
        files = sorted(self.worker_dir.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for parent, boundary, n, self_s, total_s in data["calls"]:
                rec = self.calls.setdefault((parent, boundary),
                                            [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += self_s
                rec[2] += total_s
            self.spans.extend(data["spans"])
            self.counts.update(data["counts"])
            # The parent spent this time waiting inside run_cells; it
            # belongs to the layers the worker called.
            self.worker_wrapped_s += data["wrapped_s"]
            path.unlink()
        return len(files)

    # -- results -----------------------------------------------------------

    def self_s(self, layer: str) -> float:
        total = sum(rec[1] for (_p, b), rec in self.calls.items()
                    if b.partition(".")[0] == layer)
        if layer == "exec":
            total -= self.worker_wrapped_s
        return total

    def boundary(self, boundary: str) -> tuple[int, float]:
        """(calls, total seconds) of *boundary*, over all parents."""
        recs = [rec for (_p, b), rec in self.calls.items() if b == boundary]
        return sum(r[0] for r in recs), sum(r[2] for r in recs)

    def export(self) -> dict:
        boundaries = sorted({b for _p, b in self.calls})
        return {
            "self_s": {layer: self.self_s(layer) for layer in LAYERS},
            "boundaries": {b: self.boundary(b) for b in boundaries},
            "counts": dict(self.counts),
            "worker_wrapped_s": self.worker_wrapped_s,
            "calls": [{"parent": p, "boundary": b, "calls": rec[0],
                       "self_s": rec[1], "total_s": rec[2]}
                      for (p, b), rec in sorted(self.calls.items())],
            "spans": sorted(self.spans, key=lambda s: s["start"]),
        }


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary of the simulator for *ledger*."""
    from repro.analysis import vectorplan
    from repro.branch.predictor import HybridBranchPredictor
    from repro.cores import inorder, ooo
    from repro.energy.model import EnergyModel
    from repro.exec import executor, spec, telemetry
    from repro.harness import runner
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.obs import RunObservation
    from repro.obs.probes import Probe
    from repro.svr import vr
    from repro.svr.unit import ScalarVectorUnit

    original_worker = executor._worker_main

    def worker_main(*args, **kwargs):
        ledger.begin_worker()
        return original_worker(*args, **kwargs)

    executor._worker_main = worker_main

    patch = ledger.patch
    patch(multiprocessing.process.BaseProcess, "start", "exec.spawn",
          on_enter=ledger._enter_spawn)
    patch(telemetry.CellCapture, "run", "obs.capture_run",
          on_enter=ledger._enter_cell)
    patch(telemetry.CellCapture, "snapshot", "obs.snapshot",
          on_exit=ledger._leave_snapshot)
    patch(Probe, "emit", "obs.emit")
    # The harness calls these on the observation it was handed; the
    # telemetry capture's subclass overrides two of them.
    for obs_cls in (RunObservation, telemetry._CaptureObservation):
        for name in ("begin_measure", "end_measure", "finalize"):
            if name in vars(obs_cls):
                patch(obs_cls, name, f"obs.{name}")
    patch(spec, "execute_spec", "harness.execute_spec")
    patch(runner, "run", "harness.run")
    patch(EnergyModel, "evaluate", "harness.energy")
    patch(runner, "build_workload", "workloads.build")
    patch(vectorplan, "plan_for_program", "analysis.plan")
    patch(vectorplan, "build_plan", "analysis.build_plan")
    for core_cls in (inorder.InOrderCore, ooo.OutOfOrderCore):
        patch(core_cls, "run", "cores.run", on_exit=ledger._end_window)
    for module in (inorder, ooo, vr):
        patch(module, "execute", "isa.execute")
    for op in ("load", "store", "prefetch"):
        patch(MemoryHierarchy, op, f"memory.{op}")
    patch(ScalarVectorUnit, "after_issue", "svr.after_issue")
    patch(HybridBranchPredictor, "predict_and_update", "branch.predict")

"""Acceptance tests for journal-backed resume (the ISSUE's bar).

A sweep with one hang-forced and one crash-forced cell must complete all
remaining cells, report both failures structurally, and a second
``resume=True`` invocation must re-run only the failed cells — ending
byte-identical to a run that never failed.
"""

import json
import re

import pytest

from repro.exec import (
    CRASH,
    HANG,
    ExecConfig,
    FaultPlan,
    FaultSpec,
    run_cells,
)
from repro.harness.sweeps import SweepAxis, render_sweep, sweep_report
from repro.exec.spec import RunSpec
from repro.obs.probes import ProbeBus

WORKLOADS = ("Camel", "HJ2")
AXES = [SweepAxis("svr.srf_entries", (2, 8))]

# One hang-forced cell, one crash-forced cell; everything else healthy.
FAULTS = FaultPlan(specs=(
    FaultSpec(workload="Camel", technique="*srf_entries=2*", kind="hang"),
    FaultSpec(workload="HJ2", technique="*srf_entries=8*", kind="crash"),
))


def _exec_config(journal, **kwargs):
    kwargs.setdefault("bus", ProbeBus())
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("timeout_s", 1.5)
    kwargs.setdefault("retries", 0)
    return ExecConfig(journal=str(journal), **kwargs)


class TestSweepResume:
    def test_faulted_sweep_completes_then_resumes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"

        # First invocation: the two faulted cells fail, the rest complete.
        first = sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                             exec_config=_exec_config(journal,
                                                      faults=FAULTS))
        assert len(first.failures) == 2
        assert {f.kind for f in first.failures} == {HANG, CRASH}
        for failure in first.failures:
            assert failure.workload in WORKLOADS
            assert failure.attempts == 1
        # Every non-faulted cell completed: each combo still has a value
        # from the surviving workload (partial-but-honest, not None).
        assert all(v is not None for v in first.values.values())
        report = first.exec_report
        assert report.ok_count == len(report.outcomes) - 2

        # Second invocation with resume: only the 2 failed cells re-run.
        second = sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                              exec_config=_exec_config(journal,
                                                       resume=True))
        assert second.failures == []
        assert second.exec_report.attempted_count == 2
        assert (second.exec_report.cached_count
                == len(second.exec_report.outcomes) - 2)

    def test_resumed_equals_uninterrupted(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        uninterrupted = sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                                     exec_config=ExecConfig(bus=ProbeBus()))
        sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                     exec_config=_exec_config(journal, faults=FAULTS))
        resumed = sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                               exec_config=_exec_config(journal,
                                                        resume=True))
        # Byte-identical: same combos, exactly equal floats.
        assert resumed.values == uninterrupted.values
        assert (render_sweep(resumed.values, AXES)
                == render_sweep(uninterrupted.values, AXES))

    def test_third_invocation_is_fully_cached(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                     exec_config=_exec_config(journal, faults=FAULTS))
        sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                     exec_config=_exec_config(journal, resume=True))
        third = sweep_report(WORKLOADS, "svr16", AXES, scale="tiny",
                             exec_config=_exec_config(journal, resume=True))
        assert third.exec_report.attempted_count == 0
        assert third.failures == []


class TestRunCellsResume:
    def test_failed_cells_marked_and_rerun(self, tmp_path):
        journal = tmp_path / "cells.jsonl"
        specs = [RunSpec.make(w, t, scale="tiny")
                 for w in WORKLOADS for t in ("inorder", "svr16")]
        plan = FaultPlan(specs=(
            FaultSpec(workload="Camel", technique="svr16", kind="crash"),))

        first = run_cells(specs, _exec_config(journal, faults=plan))
        assert first.failed_count == 1
        assert first.ok_count == 3
        failed_spec = RunSpec.make("Camel", "svr16", scale="tiny")
        outcome = first.outcome_for(failed_spec)
        assert not outcome.ok and outcome.failure.kind == CRASH

        second = run_cells(specs, _exec_config(journal, resume=True))
        assert second.failed_count == 0
        assert second.attempted_count == 1
        assert second.outcome_for(failed_spec).ok
        # Journal-served results equal freshly-run results byte-for-byte
        # (JSON canonicalisation absorbs tuple-vs-list container drift).
        import json

        fresh = run_cells([specs[0]], ExecConfig(bus=ProbeBus()))
        canon = lambda d: json.dumps(d, sort_keys=True, default=str)  # noqa: E731
        assert (canon(second.result_for(specs[0]).to_dict())
                == canon(fresh.result_for(specs[0]).to_dict()))

    def test_flipped_digit_in_a_journaled_result_reruns_that_cell(
            self, tmp_path):
        """A result edited on disk fails its record's checksum: resume
        warns, re-runs exactly that cell, and serves every other one."""
        journal = tmp_path / "cells.jsonl"
        specs = [RunSpec.make(w, "svr16", scale="tiny") for w in WORKLOADS]
        first = run_cells(specs, ExecConfig(journal=str(journal),
                                            bus=ProbeBus()))
        victim = specs[0]
        lines = journal.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            if json.loads(line).get("key") == victim.key:
                match = re.search(r'"ipc": -?\d+\.\d*(\d)', line)
                digit = str((int(match.group(1)) + 1) % 10)
                lines[index] = (line[:match.start(1)] + digit
                                + line[match.end(1):])
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with pytest.warns(RuntimeWarning, match="sha256 does not match"):
            resumed = run_cells(specs, ExecConfig(
                journal=str(journal), resume=True, bus=ProbeBus()))
        assert resumed.attempted_count == 1
        assert not resumed.outcome_for(victim).cached
        assert resumed.cached_count == len(specs) - 1
        assert (resumed.result_for(victim).ipc
                == first.result_for(victim).ipc)

"""Unit tests for the resilient execution layer (repro.exec)."""

import json
import os

import pytest

from repro.exec import (
    CRASH,
    HANG,
    ExecConfig,
    FaultPlan,
    FaultSpec,
    ResultView,
    RunFailure,
    RunJournal,
    RunSpec,
    TelemetryConfig,
    config_key,
    parse_fault,
    run_cells,
)
from repro.harness.runner import run, technique
from repro.obs.metrics import MetricsRegistry, install_exec_metrics
from repro.obs.probes import ProbeBus


def _spec(workload="Camel", tech="inorder", scale="tiny"):
    return RunSpec.make(workload, tech, scale=scale)


def _quiet(**kwargs) -> ExecConfig:
    kwargs.setdefault("bus", ProbeBus())
    return ExecConfig(**kwargs)


class TestConfigKey:
    def test_deterministic(self):
        a, b = _spec(), _spec()
        assert a.key == b.key
        assert len(a.key) == 16

    def test_sensitive_to_any_knob(self):
        base = _spec(tech="svr16")
        keys = {
            base.key,
            _spec(tech="svr64").key,
            _spec(workload="HJ2", tech="svr16").key,
            RunSpec.make("Camel", "svr16", scale="bench").key,
            RunSpec.make("Camel", technique("svr16", srf_entries=2),
                         scale="tiny").key,
        }
        assert len(keys) == 5

    def test_key_order_independent(self):
        assert (config_key({"a": 1, "b": 2})
                == config_key({"b": 2, "a": 1}))


class TestResultView:
    def test_matches_live_simresult(self):
        result = run("Camel", technique("svr16"), scale="tiny")
        view = ResultView(result.to_dict())
        assert view.ipc == pytest.approx(result.ipc)
        assert view.cpi == pytest.approx(result.cpi)
        assert view.energy_per_instruction_nj == pytest.approx(
            result.energy_per_instruction_nj)
        assert view.cpi_stack() == pytest.approx(result.cpi_stack())
        assert view.hierarchy.accuracy("svr") == pytest.approx(
            result.hierarchy.accuracy("svr"))
        assert view.hierarchy.dram_fetches == dict(
            result.hierarchy.dram_fetches)
        assert view.metric("ipc") == pytest.approx(result.ipc)
        assert view.metric("energy_per_instruction_nj") == pytest.approx(
            result.energy_per_instruction_nj)

    def test_survives_json_round_trip(self):
        result = run("Camel", technique("inorder"), scale="tiny")
        view = ResultView(json.loads(json.dumps(result.to_dict(),
                                                default=str)))
        assert view.ipc == pytest.approx(result.ipc)

    def test_unknown_metric_raises(self):
        result = run("Camel", technique("inorder"), scale="tiny")
        with pytest.raises(ValueError, match="not an exported scalar"):
            ResultView(result.to_dict()).metric("nonsense")


class TestExecConfigValidation:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="resume requires a journal"):
            ExecConfig(resume=True)

    def test_timeout_requires_isolation(self):
        # A wall-clock kill needs a worker process to kill.
        assert ExecConfig(timeout_s=1.0).isolate

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ExecConfig(jobs=0)

    def test_auto_isolation(self):
        assert not ExecConfig().isolate
        assert ExecConfig(jobs=2).isolate
        assert ExecConfig(timeout_s=1.0).isolate
        assert ExecConfig(jobs=1, timeout_s=None).isolate is False

    def test_backoff_is_bounded(self):
        cfg = ExecConfig(backoff_s=1.0, max_backoff_s=3.0)
        assert [cfg.backoff_delay(a) for a in (1, 2, 3, 4)] == [
            1.0, 2.0, 3.0, 3.0]


class TestInlineExecution:
    def test_dedup_shared_cells(self):
        specs = [_spec(), _spec(), _spec(tech="svr16")]
        report = run_cells(specs, _quiet())
        assert len(report.outcomes) == 2
        assert report.ok_count == 2
        view = report.result_for(specs[0])
        assert view is not None and view.ipc > 0

    def test_injected_crash_is_salvaged(self):
        plan = FaultPlan(specs=(FaultSpec(workload="Camel",
                                          technique="svr16"),))
        specs = [_spec(tech="svr16"), _spec(workload="HJ2", tech="svr16")]
        report = run_cells(specs, _quiet(faults=plan, retries=0))
        assert report.failed_count == 1
        assert report.ok_count == 1
        (failure,) = report.failures
        assert failure.kind == CRASH
        assert failure.workload == "Camel"
        assert failure.attempts == 1
        assert report.result_for(specs[0]) is None
        assert report.result_for(specs[1]) is not None

    def test_inline_hang_classified_as_hang(self):
        plan = FaultPlan(specs=(FaultSpec(kind="hang"),))
        report = run_cells([_spec()], _quiet(faults=plan, retries=0))
        (failure,) = report.failures
        assert failure.kind == HANG

    def test_flaky_fault_succeeds_on_retry(self):
        plan = FaultPlan(specs=(FaultSpec(kind="flaky"),))
        report = run_cells([_spec()],
                           _quiet(faults=plan, retries=1, backoff_s=0.0))
        (outcome,) = report.outcomes
        assert outcome.ok
        assert outcome.attempts == 2

    def test_unexpected_exception_keeps_its_traceback(self, monkeypatch):
        import repro.exec.spec as spec_module

        def boom(spec, obs=None, progress=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(spec_module, "execute_spec", boom)
        (failure,) = run_cells([_spec()], _quiet(retries=0)).failures
        assert failure.kind == CRASH
        assert "RuntimeError: boom" in failure.traceback


class TestIsolatedExecution:
    def test_parallel_jobs_complete(self):
        specs = [_spec(), _spec(tech="ooo"), _spec(tech="svr16"),
                 _spec(workload="HJ2")]
        report = run_cells(specs, _quiet(jobs=2))
        assert report.ok_count == 4
        inline = run_cells([specs[0]], _quiet())
        assert (report.result_for(specs[0]).ipc
                == pytest.approx(inline.result_for(specs[0]).ipc))

    def test_worker_crash_is_salvaged(self):
        plan = FaultPlan(specs=(FaultSpec(workload="Camel"),))
        specs = [_spec(), _spec(workload="HJ2")]
        report = run_cells(specs, _quiet(jobs=2, retries=0, faults=plan))
        assert report.ok_count == 1
        (failure,) = report.failures
        assert failure.kind == CRASH and failure.workload == "Camel"

    def test_hang_hits_wall_clock_timeout(self):
        plan = FaultPlan(specs=(FaultSpec(workload="Camel", kind="hang"),))
        specs = [_spec(), _spec(workload="HJ2")]
        report = run_cells(
            specs, _quiet(jobs=2, timeout_s=1.0, retries=0, faults=plan))
        assert report.ok_count == 1
        (failure,) = report.failures
        assert failure.kind == HANG
        assert "timeout" in failure.message

    def test_warm_worker_runs_every_cell_like_inline(self):
        specs = [_spec(), _spec(tech="svr16"), _spec(workload="HJ2",
                                                     tech="ooo"),
                 _spec(workload="Randacc", tech="svr16")]
        report = run_cells(specs, _quiet(jobs=1, timeout_s=60.0,
                                         telemetry=TelemetryConfig()))
        assert report.ok_count == 4
        (pid,) = set(_pids(report, specs))
        assert pid != os.getpid()
        # No state carries from one cell to the next in a warm worker.
        inline = run_cells(specs, _quiet())
        for spec in specs:
            assert _export(report, spec) == _export(inline, spec)

    def test_failed_cells_never_share_a_worker_with_later_ones(self):
        plan = FaultPlan(specs=(FaultSpec(workload="HJ2"),
                                FaultSpec(workload="Kangr", kind="hang")))
        specs = [_spec(), _spec(workload="HJ2"), _spec(tech="ooo"),
                 _spec(workload="Kangr"), _spec(tech="svr16")]
        report = run_cells(specs, _quiet(
            jobs=1, timeout_s=1.5, retries=0, faults=plan,
            telemetry=TelemetryConfig()))
        assert [o.status for o in report.outcomes] == [
            "ok", "failed", "ok", "failed", "ok"]
        assert [f.kind for f in report.failures] == [CRASH, HANG]
        # The hung cell was killed, so it shipped no telemetry.
        first, crashed, after_crash, after_hang = _pids(report, specs)
        assert crashed == first            # the crash is reported ...
        assert after_crash != first        # ... and its worker retired
        assert after_hang not in (first, after_crash)   # hang: killed
        inline = run_cells(specs, _quiet())
        for spec in (specs[0], specs[2], specs[4]):
            assert _export(report, spec) == _export(inline, spec)
        # The parent track shows one spawn and one reap per worker.
        spans = report.parent_spans
        workers = {first, after_crash, after_hang}
        for name in ("spawn", "reap"):
            pids = [s["attrs"]["pid"] for s in spans if s["name"] == name]
            assert sorted(pids) == sorted(workers)

    def test_advancing_cell_outlives_the_wall_clock_fence(self,
                                                          monkeypatch):
        # ~1.5 s of simulation against a 0.4 s fence: progress frames
        # that advance the simulated clock keep pushing the fence out.
        from repro.exec.executor import WorkerPool
        from repro.obs import progress

        monkeypatch.setattr(progress, "INTERVAL_INSTRUCTIONS", 500)
        monkeypatch.setattr(progress, "MIN_INTERVAL_S", 0.0)
        spec = RunSpec.make("Camel", "inorder", scale="bench",
                            measure=300_000)

        def settle(pool):
            pool.dispatch(spec, 1)
            try:
                done = []
                while not done:
                    done = pool.poll()
            finally:
                pool.stop()
            (completion,) = done
            return completion

        fenced = settle(WorkerPool(1, timeout_s=0.4))
        assert fenced.failure.kind == HANG
        assert "wall-clock timeout" in fenced.failure.message
        assert settle(WorkerPool(1, timeout_s=0.4, progress=True)).ok


class TestWorkerPoolDrain:
    @pytest.mark.parametrize("timeout_s", [30.0, None],
                             ids=["fenced", "unfenced"])
    def test_drain_kill_is_not_a_timeout(self, timeout_s):
        """A cell still running when the drain budget runs out is killed
        as a hang that names the drain, with or without a wall-clock
        fence, and is not counted as a wall-clock timeout."""
        from repro.exec.executor import WorkerPool

        plan = FaultPlan(specs=(parse_fault("Camel/*:hang:99"),))
        pool = WorkerPool(1, timeout_s=timeout_s, faults=plan)
        pool.dispatch(_spec(), 1)
        (completion,) = pool.drain(timeout_s=0.5)
        assert completion.failure.kind == HANG
        assert "drain" in completion.failure.message
        assert "wall-clock" not in completion.failure.message
        assert completion.timed_out is False
        assert pool.busy_count() == 0 and pool.idle_count() == 0


def _pids(report, specs):
    return [report.outcome_for(spec).telemetry["pid"] for spec in specs
            if report.outcome_for(spec).telemetry is not None]


def _export(report, spec):
    return json.dumps(report.outcome_for(spec).result, sort_keys=True)


class TestFaultPlan:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=7, crash_rate=0.5)
        decisions = [plan.decide(f"k{i}", "w", "t", 1) for i in range(32)]
        assert decisions == [plan.decide(f"k{i}", "w", "t", 1)
                             for i in range(32)]
        assert "crash" in decisions and None in decisions

    def test_seed_changes_victims(self):
        a = FaultPlan(seed=1, crash_rate=0.5)
        b = FaultPlan(seed=2, crash_rate=0.5)
        keys = [f"k{i}" for i in range(64)]
        assert ([a.decide(k, "w", "t", 1) for k in keys]
                != [b.decide(k, "w", "t", 1) for k in keys])

    def test_glob_matching(self):
        spec = FaultSpec(workload="BC_*", technique="svr*")
        assert spec.matches("BC_UR", "svr16")
        assert not spec.matches("PR_KR", "svr16")
        assert not spec.matches("BC_UR", "inorder")

    def test_times_budget(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", times=2),))
        assert plan.decide("k", "w", "t", 1) == "crash"
        assert plan.decide("k", "w", "t", 2) == "crash"
        assert plan.decide("k", "w", "t", 3) is None

    def test_flaky_only_first_attempt(self):
        plan = FaultPlan(specs=(FaultSpec(kind="flaky"),))
        assert plan.decide("k", "w", "t", 1) == "crash"
        assert plan.decide("k", "w", "t", 2) is None

    def test_parse_fault(self):
        spec = parse_fault("Camel/svr16:hang:2")
        assert spec == FaultSpec(workload="Camel", technique="svr16",
                                 kind="hang", times=2)
        assert parse_fault("Camel:crash") == FaultSpec(
            workload="Camel", technique="*", kind="crash")
        with pytest.raises(ValueError, match="must look like"):
            parse_fault("Camel")
        with pytest.raises(ValueError, match="kind"):
            parse_fault("Camel/*:explode")
        with pytest.raises(ValueError, match="TIMES"):
            parse_fault("Camel/*:crash:soon")

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)


class TestJournal:
    def test_last_record_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append_cell(key="k1", workload="w", technique="t",
                            scale="tiny", status="failed", attempts=1,
                            elapsed_s=0.1,
                            failure={"kind": "crash", "message": "boom"})
        journal.append_cell(key="k1", workload="w", technique="t",
                            scale="tiny", status="ok", attempts=1,
                            elapsed_s=0.1, result={"ipc": 1.0})
        records = journal.load()
        assert records["k1"]["status"] == "ok"

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.append_cell(key="k1", workload="w", technique="t",
                            scale="tiny", status="ok", attempts=1,
                            elapsed_s=0.1, result={"ipc": 1.0})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "cell", "key": "k2", "stat')  # torn write
        records = journal.load()
        assert set(records) == {"k1"}

    def test_marker_events_ignored_on_load(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.append_event("retry", key="k1", attempt=1, kind="crash")
        journal.append_event("timeout", key="k1", attempt=2)
        assert journal.load() == {}


class TestObservability:
    def test_probes_and_metrics(self):
        bus = ProbeBus()
        registry = MetricsRegistry()
        install_exec_metrics(bus, registry)
        plan = FaultPlan(specs=(FaultSpec(workload="Camel",
                                          technique="svr16"),))
        specs = [_spec(tech="svr16"), _spec(workload="HJ2", tech="svr16")]
        run_cells(specs, ExecConfig(faults=plan, retries=1, backoff_s=0.0,
                                    bus=bus))
        snap = registry.snapshot()
        assert snap["exec.cells"] == 2
        assert snap["exec.failures"] == 1
        assert snap["exec.failures.crash"] == 1
        assert snap["exec.retries"] == 1

    def test_failure_str_is_informative(self):
        failure = RunFailure(key="k", workload="Camel", technique="svr16",
                             kind=CRASH, message="boom", attempts=2)
        text = str(failure)
        assert "Camel/svr16" in text and "crash" in text and "boom" in text

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RunFailure(key="k", workload="w", technique="t",
                       kind="melted", message="?")

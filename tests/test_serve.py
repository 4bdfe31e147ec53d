"""Unit tests for the serving building blocks (repro.serve.*) and the
exec-layer hardening that rode along: journal corruption tolerance
(corrupt lines and records that fail their checksum) and deterministic
backoff jitter."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.exec import CRASH, HANG, QUARANTINED, ExecConfig, RunJournal
from repro.exec.spec import RunSpec
from repro.obs.metrics import MetricsRegistry, install_exec_metrics
from repro.obs.probes import ProbeBus
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    JobQueue,
    QueueFull,
    ServeConfig,
)


def spec_for(workload: str = "PR_KR", tech: str = "svr16") -> RunSpec:
    return RunSpec.make(workload, tech, scale="tiny")


# ---------------------------------------------------------------------------
# Circuit breaker.
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, threshold: int = 3, cooldown: float = 10.0):
        clock = FakeClock()
        return CircuitBreaker(threshold=threshold, cooldown_s=cooldown,
                              clock=clock), clock

    def test_opens_after_threshold_consecutive_trips(self):
        breaker, _clock = self.make(threshold=3)
        assert breaker.record_failure("k", CRASH, "boom") == CLOSED
        assert breaker.record_failure("k", HANG, "stuck") == CLOSED
        assert breaker.record_failure("k", CRASH, "boom") == OPEN
        assert breaker.admit("k") == (False, OPEN)

    def test_success_resets_the_streak(self):
        breaker, _clock = self.make(threshold=2)
        breaker.record_failure("k", CRASH, "boom")
        breaker.record_success("k")
        assert breaker.record_failure("k", CRASH, "boom") == CLOSED
        assert breaker.state("k") == CLOSED

    def test_invalid_config_never_trips(self):
        breaker, _clock = self.make(threshold=1)
        assert breaker.record_failure("k", "invalid-config", "bad") == CLOSED
        assert breaker.admit("k") == (True, CLOSED)

    def test_half_open_admits_exactly_one_trial(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("k", CRASH, "boom")
        assert breaker.admit("k") == (False, OPEN)
        clock.now = 11.0
        assert breaker.admit("k") == (True, HALF_OPEN)
        assert breaker.admit("k") == (False, HALF_OPEN)   # trial in flight

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("k", CRASH, "boom")
        clock.now = 11.0
        assert breaker.admit("k")[0]
        assert breaker.record_failure("k", HANG, "again") == OPEN
        clock.now = 12.0
        assert breaker.admit("k") == (False, OPEN)        # cooldown reset

    def test_half_open_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("k", CRASH, "boom")
        clock.now = 11.0
        assert breaker.admit("k")[0]
        breaker.record_success("k")
        assert breaker.admit("k") == (True, CLOSED)

    def test_quarantine_failure_carries_history(self):
        breaker, _clock = self.make(threshold=2)
        breaker.record_failure("k", CRASH, "segfault at 0x40")
        breaker.record_failure("k", HANG, "no result in 30s")
        failure = breaker.quarantine_failure("k", "PR_KR", "svr16")
        assert failure.kind == QUARANTINED
        assert "2 recorded" in failure.message
        assert "no result in 30s" in failure.message

    def test_history_is_bounded(self):
        breaker = CircuitBreaker(threshold=100, history_limit=4)
        for i in range(10):
            breaker.record_failure("k", CRASH, f"boom {i}")
        assert len(breaker.history("k")) == 4
        assert breaker.history("k")[-1]["message"] == "boom 9"

    def test_snapshot_lists_only_interesting_keys(self):
        breaker, _clock = self.make(threshold=1)
        breaker.record_failure("bad", CRASH, "boom")
        breaker.record_failure("meh", "invalid-config", "bad field")
        snap = breaker.snapshot()
        assert "bad" in snap and snap["bad"]["state"] == OPEN
        assert "meh" not in snap


# ---------------------------------------------------------------------------
# Job queue.
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_fifo_and_settle(self):
        queue = JobQueue(limit=4)
        job_a = queue.submit(spec_for("PR_KR"))
        job_b = queue.submit(spec_for("Camel", "svr8"))
        assert queue.depth() == 2
        spec = queue.next_cell()
        assert spec.workload == "PR_KR"
        assert queue.get(job_a.job_id).state == "running"
        settled = queue.settle(spec.key, "ok", attempts=1)
        assert [j.job_id for j in settled] == [job_a.job_id]
        assert job_a.terminal and job_a.wait_s() is not None
        assert queue.get(job_b.job_id).state == "queued"

    def test_duplicate_submissions_coalesce(self):
        queue = JobQueue(limit=4)
        first = queue.submit(spec_for())
        second = queue.submit(spec_for())
        assert second.coalesced and not first.coalesced
        assert queue.depth() == 1               # one cell, two jobs
        spec = queue.next_cell()
        settled = queue.settle(spec.key, "ok")
        assert {j.job_id for j in settled} == {first.job_id,
                                              second.job_id}

    def test_queue_full_raises_with_retry_hint(self):
        queue = JobQueue(limit=1, retry_after_s=3.0)
        queue.submit(spec_for())
        with pytest.raises(QueueFull) as err:
            queue.submit(spec_for("Camel", "svr8"))
        assert err.value.retry_after_s == 3.0
        # Coalescing is exempt from the capacity check.
        assert queue.submit(spec_for()).coalesced

    def test_requeue_puts_cell_back_at_head(self):
        queue = JobQueue(limit=4)
        job = queue.submit(spec_for())
        queue.submit(spec_for("Camel", "svr8"))
        spec = queue.next_cell()
        queue.requeue(spec.key)
        assert queue.get(job.job_id).state == "queued"
        assert queue.next_cell().key == spec.key   # head, not tail

    def test_terminal_admission(self):
        queue = JobQueue(limit=4)
        job = queue.admit_terminal(spec_for(), "ok", cached=True)
        assert job.terminal and job.cached
        assert queue.depth() == 0 and queue.inflight() == 0

    def test_done_jobs_are_evicted_beyond_max_done(self):
        queue = JobQueue(limit=64, max_done=4)
        for _ in range(8):
            queue.admit_terminal(spec_for(), "ok")
        assert len(queue.jobs()) == 4

    def test_settle_requires_terminal_state(self):
        queue = JobQueue(limit=4)
        with pytest.raises(ValueError, match="terminal state"):
            queue.settle("deadbeef", "running")


# ---------------------------------------------------------------------------
# Journal hardening: a corrupt line mid-file, or a record that fails its
# checksum, is skipped and counted.
# ---------------------------------------------------------------------------

class TestJournalCorruption:
    def write_journal(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def cell(self, key: str) -> str:
        return json.dumps({"event": "cell", "key": key, "status": "ok",
                           "result": {}})

    def test_midfile_corruption_skipped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_journal(path, [self.cell("aa"), "{ torn mid-file",
                                  self.cell("bb")])
        journal = RunJournal(path)
        with pytest.warns(RuntimeWarning, match="line 2"):
            records = journal.load()
        assert sorted(records) == ["aa", "bb"]
        assert journal.skipped_records == 1

    def test_torn_trailing_line_still_silent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_journal(path, [self.cell("aa"), '{"event": "cell", "ke'])
        journal = RunJournal(path)
        records = journal.load()                # no warning expected
        assert sorted(records) == ["aa"]
        assert journal.skipped_records == 0

    def test_skip_feeds_the_metric(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_journal(path, [self.cell("aa"), "garbage",
                                  "more garbage", self.cell("bb")])
        bus = ProbeBus()
        registry = MetricsRegistry()
        install_exec_metrics(bus, registry)
        journal = RunJournal(path, bus=bus)
        with pytest.warns(RuntimeWarning):
            journal.load()
        assert journal.skipped_records == 2
        snap = registry.snapshot()
        assert snap["exec.journal_skipped_records"] == 2

    def test_append_stamps_a_checksum_that_reads_back(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        record = {"event": "cell", "key": "aa", "status": "ok",
                  "result": {"ipc": 1.25, "stack": (1, 2)}}
        journal.append(record)
        assert len(record["sha256"]) == 64
        (read,) = journal.records()
        assert read == json.loads(json.dumps(record))
        assert journal.skipped_records == 0

    def test_record_failing_its_checksum_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        for key in ("aa", "bb"):
            journal.append({"event": "cell", "key": key, "status": "ok",
                            "result": {"ipc": 1.25}})
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"ipc": 1.25', '"ipc": 1.26')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning,
                          match=r"line 2 \(its sha256 does not match"):
            records = journal.results()
        assert sorted(records) == ["aa"]
        assert journal.skipped_records == 1

    def test_results_keeps_latest_ok_records_with_a_result(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        common = dict(workload="w", technique="t", scale="tiny",
                      attempts=1, elapsed_s=0.1)
        journal.append_cell(key="aa", status="ok", result={"ipc": 1.0},
                            **common)
        journal.append_cell(key="bb", status="ok", result={"ipc": 1.0},
                            **common)
        journal.append_cell(key="bb", status="failed",
                            failure={"kind": "crash"}, **common)
        journal.append_cell(key="cc", status="ok", **common)
        journal.append_event("retry", key="dd", attempt=1)
        assert sorted(journal.results()) == ["aa"]


# ---------------------------------------------------------------------------
# Deterministic seeded backoff jitter.
# ---------------------------------------------------------------------------

class TestBackoffJitter:
    def test_full_sequence_is_deterministic_and_capped(self):
        cfg = ExecConfig(backoff_s=1.0, max_backoff_s=3.0)
        sequence = [cfg.backoff_delay(a, "deadbeef") for a in range(1, 6)]
        assert sequence == [cfg.backoff_delay(a, "deadbeef")
                            for a in range(1, 6)]
        # Jitter stays within +/-10% of the doubling curve, and the cap
        # re-applies after jitter: nothing ever exceeds max_backoff_s.
        base = [1.0, 2.0, 3.0, 3.0, 3.0]
        for value, expected in zip(sequence, base):
            assert 0.9 * expected <= value <= min(1.1 * expected, 3.0)
        # Jitter actually perturbs (astronomically unlikely to all tie).
        assert sequence != base

    def test_different_keys_decorrelate(self):
        cfg = ExecConfig()
        delays = [cfg.backoff_delay(1, k) for k in ("k1", "k2", "k3")]
        assert len(set(delays)) == 3

    def test_no_key_means_no_jitter(self):
        cfg = ExecConfig(backoff_s=1.0, max_backoff_s=3.0)
        assert [cfg.backoff_delay(a) for a in (1, 2, 3)] == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# `repro serve` flag validation.
# ---------------------------------------------------------------------------

class TestServeFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--timeout", "-5"),
        ("--breaker-threshold", "0"),
        ("--breaker-cooldown", "-1"),
        ("--workers", "0"),
    ])
    def test_invalid_flag_is_a_usage_error(self, tmp_path, capsys, flag,
                                          value):
        # Fails before start(): no listener, thread or worker is started.
        code = main(["serve", "--port", "0",
                     "--ledger", str(tmp_path / "ledger.jsonl"),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ")
        assert "Traceback" not in err

    def test_cadence_flags_are_gone(self, capsys):
        # The live plane's cadences are constants, not flags.
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        usage = capsys.readouterr().out
        assert "--progress-interval" not in usage
        assert "--sample-interval" not in usage

    def test_ledger_is_required(self):
        # The ledger is the result cache, so it cannot be switched off.
        with pytest.raises(ValueError, match="ledger"):
            ServeConfig(ledger="")

    @pytest.mark.parametrize("command", ["serve", "figure", "sweep"])
    def test_store_and_fault_seed_flags_are_gone(self, capsys, command):
        # The ledger is the result cache; faults are explicit specs.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert "--store" not in usage
        assert "--fault-seed" not in usage

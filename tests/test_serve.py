"""Unit tests for the serving building blocks (repro.serve.*) and the
exec-layer hardening that rode along: journal mid-file corruption
tolerance and deterministic seeded backoff jitter."""

from __future__ import annotations

import json
import os

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
    ResultStore,
    record_digest,
)


def spec_for(workload: str = "PR_KR", tech: str = "svr16") -> RunSpec:
    return RunSpec.make(workload, tech, scale="tiny")


# ---------------------------------------------------------------------------
# Content-addressed result store.
# ---------------------------------------------------------------------------

class TestResultStore:
    def record(self, key: str = "ab12") -> dict:
        return {"event": "cell", "key": key, "status": "ok",
                "result": {"ipc": 1.5}}

    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = self.record()
        store.put("ab12", record)
        assert store.get("ab12") == record
        assert "ab12" in store
        assert store.keys() == ["ab12"]

    def test_get_miss_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("dead") is None
        assert store.corrupt_detected == 0

    def test_key_validation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for bad in ("", "../evil", "UPPER", "a b"):
            with pytest.raises(ValueError, match="hex config hash"):
                store.get(bad)

    def test_entry_embeds_checksum(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = self.record()
        path = store.put("ab12", record)
        entry = json.loads(path.read_text())
        assert entry["v"] == 1
        assert entry["key"] == "ab12"
        assert entry["sha256"] == record_digest(record)

    @pytest.mark.parametrize("corruption", [
        b"{ not json",                                   # torn write
        b'{"v": 1, "record": "not-a-cell"}',             # wrong shape ok
        b'"just a string"',                              # not a dict
    ])
    def test_corrupt_entry_quarantined(self, tmp_path, corruption):
        seen = []
        store = ResultStore(tmp_path / "store",
                            on_corrupt=lambda k, r: seen.append((k, r)))
        store.put("ab12", self.record())
        store.entry_path("ab12").write_bytes(corruption)
        assert store.get("ab12") is None
        assert store.corrupt_detected == 1
        assert seen and seen[0][0] == "ab12"
        # Quarantined, not deleted: the bad bytes survive for forensics.
        assert not store.entry_path("ab12").exists()
        assert list(tmp_path.glob("store/ab12.corrupt.*"))

    def test_flipped_bit_fails_checksum(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ab12", self.record())
        path = store.entry_path("ab12")
        blob = path.read_text().replace('"ipc": 1.5', '"ipc": 9.5')
        path.write_text(blob)
        assert store.get("ab12") is None
        assert store.corrupt_detected == 1

    def test_key_mismatch_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ab12", self.record())
        os.replace(store.entry_path("ab12"), store.entry_path("cd34"))
        assert store.get("cd34") is None
        assert store.corrupt_detected == 1

    def test_verify_splits_ok_and_bad(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("aa01", self.record("aa01"))
        store.put("bb02", self.record("bb02"))
        store.entry_path("bb02").write_text("garbage")
        ok, bad = store.verify()
        assert ok == ["aa01"]
        assert bad == ["bb02"]

    def test_rebuild_from_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "ledger.jsonl")
        journal.append_cell(key="aa01", workload="w", technique="t",
                            scale="tiny", status="ok", attempts=1,
                            elapsed_s=0.1, result={"ipc": 1.0})
        journal.append_cell(key="bb02", workload="w", technique="t",
                            scale="tiny", status="failed", attempts=2,
                            elapsed_s=0.2, failure={"kind": "crash"})
        store = ResultStore(tmp_path / "store")
        assert store.rebuild(journal) == 1      # failures are not cached
        assert store.get("aa01") is not None
        assert store.get("bb02") is None
        # Healthy entries keep their bytes on a second rebuild.
        before = store.entry_path("aa01").read_bytes()
        assert store.rebuild(journal) == 0
        assert store.entry_path("aa01").read_bytes() == before

    def test_rebuild_repopulates_quarantined_entry(self, tmp_path):
        journal = RunJournal(tmp_path / "ledger.jsonl")
        journal.append_cell(key="aa01", workload="w", technique="t",
                            scale="tiny", status="ok", attempts=1,
                            elapsed_s=0.1, result={"ipc": 1.0})
        store = ResultStore(tmp_path / "store")
        store.rebuild(journal)
        store.entry_path("aa01").write_text("{ torn")
        assert store.get("aa01") is None        # quarantines
        assert store.rebuild(journal) == 1      # repopulates
        assert store.get("aa01")["result"] == {"ipc": 1.0}


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
# Journal hardening: corrupt line mid-file is skipped and counted.
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


# ---------------------------------------------------------------------------
# Deterministic seeded backoff jitter.
# ---------------------------------------------------------------------------

class TestBackoffJitter:
    def test_full_sequence_is_deterministic_and_capped(self):
        cfg = ExecConfig(backoff_s=1.0, backoff_factor=2.0,
                         max_backoff_s=3.0, backoff_jitter=0.5,
                         jitter_seed=7)
        sequence = [cfg.backoff_delay(a, "deadbeef") for a in range(1, 6)]
        assert sequence == [cfg.backoff_delay(a, "deadbeef")
                            for a in range(1, 6)]
        # Jitter stays within +/-50% of the un-jittered curve, and the
        # cap re-applies after jitter: nothing ever exceeds max_backoff_s.
        base = [1.0, 2.0, 3.0, 3.0, 3.0]
        for value, expected in zip(sequence, base):
            assert 0.5 * expected <= value <= min(1.5 * expected, 3.0)
            assert value <= 3.0
        # Jitter actually perturbs (astronomically unlikely to all tie).
        assert sequence != base

    def test_different_keys_and_seeds_decorrelate(self):
        cfg_a = ExecConfig(backoff_jitter=0.5, jitter_seed=1)
        cfg_b = ExecConfig(backoff_jitter=0.5, jitter_seed=2)
        delays_a = [cfg_a.backoff_delay(1, k) for k in ("k1", "k2", "k3")]
        assert len(set(delays_a)) == 3
        assert cfg_a.backoff_delay(2, "k1") != cfg_b.backoff_delay(2, "k1")

    def test_no_key_means_no_jitter(self):
        cfg = ExecConfig(backoff_s=1.0, backoff_factor=10.0,
                         max_backoff_s=3.0, backoff_jitter=0.5)
        assert cfg.backoff_delay(1) == 1.0
        assert cfg.backoff_delay(2) == 3.0

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            ExecConfig(backoff_jitter=1.5)


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
                     "--store", str(tmp_path / "store"),
                     "--ledger", str(tmp_path / "ledger.jsonl"),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ")
        assert "Traceback" not in err

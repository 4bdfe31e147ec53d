"""End-to-end drills for ``repro serve``: a real ReproServer on an
ephemeral port, exercised over HTTP through ``repro.serve.client``, with
deterministic fault injection driving the crash / hang / full-queue /
corruption paths.  The one invariant every test leans on: the server
never exits, and every admitted job reaches a terminal verdict."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.exec import RunJournal
from repro.exec.faults import FaultPlan, parse_fault
from repro.serve import ReproServer, ServeClient, ServeClientError, ServeConfig


def start_server(tmp_path, **overrides) -> ReproServer:
    settings = dict(host="127.0.0.1", port=0, workers=2,
                    ledger=str(tmp_path / "ledger.jsonl"),
                    drain_timeout_s=5.0)
    settings.update(overrides)
    server = ReproServer(ServeConfig(**settings))
    server.start()
    return server


def stop_server(server: ReproServer) -> None:
    if not server.wait(0):
        server.request_drain("test teardown")
        assert server.wait(30), "server failed to drain in teardown"


def client_for(server: ReproServer) -> ServeClient:
    return ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=10.0)


def raw_post(server: ReproServer, body: bytes) -> int:
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status
    except urllib.error.HTTPError as err:
        err.read()
        return err.code


def flip_result_digit(ledger, key: str) -> None:
    """Edit one digit of the ``ipc`` in *key*'s ``ok`` cell record on
    disk, as a disk fault or a hand edit would."""
    lines = ledger.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if (record.get("event") == "cell" and record.get("key") == key
                and record.get("status") == "ok"):
            match = re.search(r'"ipc": -?\d+\.\d*(\d)', line)
            digit = str((int(match.group(1)) + 1) % 10)
            lines[index] = (line[:match.start(1)] + digit
                            + line[match.end(1):])
    ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Healthy service: submit, cache, validate, drain.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serving(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-clean")
    server = start_server(tmp, retries=0, timeout_s=60.0, queue_limit=16)
    yield server
    stop_server(server)


class TestService:
    def test_submit_runs_to_ok(self, serving):
        client = client_for(serving)
        job = client.submit("PR_KR", "svr16", scale="tiny")
        assert job["state"] in ("queued", "running")
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["job"]["state"] == "ok"
        assert final["job"]["attempts"] == 1
        assert final["result"]["ipc"] > 0

    def test_resubmit_is_cache_hit_served_byte_identically(self, serving):
        client = client_for(serving)
        job = client.submit("PR_KR", "svr16", scale="tiny")
        assert job["state"] == "ok" and job["cached"]
        first = client.result_bytes(job["key"])
        second = client.result_bytes(job["key"])
        assert first == second and len(first) > 0
        # The bytes are the cell's ledger record.
        record = json.loads(first)
        assert record["key"] == job["key"]
        assert record["status"] == "ok"
        ledger = RunJournal(serving.config.ledger)
        assert record == ledger.results()[job["key"]]

    def test_served_cell_record_carries_telemetry(self, serving):
        client = client_for(serving)
        job = client.submit("PR_KR", "svr16", scale="tiny")
        assert job["cached"]
        served = json.loads(client.result_bytes(job["key"]))
        assert served["telemetry"]["metrics"]["core.instructions"]
        (cell,) = [r for r in RunJournal(serving.config.ledger).records()
                   if r.get("event") == "cell" and r["key"] == job["key"]]
        assert cell["telemetry"]["metrics"] == served["telemetry"]["metrics"]

    def test_introspection_endpoints(self, serving):
        client = client_for(serving)
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"]
        jobs = client.jobs()
        assert any(j["cached"] for j in jobs)
        metrics = client.metrics()
        assert metrics["serve.cache_hits"] >= 1
        assert metrics["serve.requests"] >= len(jobs)
        assert metrics["serve.jobs_ok"] >= 1

    @pytest.mark.parametrize("payload", [
        {"workload": "Hashjoin", "technique": "svr16", "scale": "tiny"},
        {"workload": "PR_KR", "technique": "warp9", "scale": "tiny"},
        {"workload": "PR_KR", "technique": "svr16", "scale": "galactic"},
        {"workload": "PR_KR", "technique": "svr16", "scale": "tiny",
         "warmup": -5},
        {"workload": "PR_KR", "technique": "svr16", "scale": "tiny",
         "sudo": True},
        {"workload": "", "technique": "svr16"},
        ["not", "a", "dict"],
    ])
    def test_invalid_submissions_are_400_not_worker_food(self, serving,
                                                        payload):
        client = client_for(serving)
        with pytest.raises(ServeClientError) as err:
            client._json("POST", "/jobs", payload)
        assert err.value.status == 400

    def test_malformed_body_and_routes(self, serving):
        assert raw_post(serving, b"{ not json") == 400
        client = client_for(serving)
        with pytest.raises(ServeClientError) as err:
            client.job("job-9999")
        assert err.value.status == 404
        for bad_key in ("NOT-A-KEY", "abc123", "0" * 17):
            with pytest.raises(ServeClientError) as err:
                client.result_bytes(bad_key)
            assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.result_bytes("0" * 16)
        assert err.value.status == 404
        # After all that abuse the service is still healthy.
        assert client.health()["status"] == "ok"

    def test_graceful_drain_refuses_new_work_and_exits(self, serving):
        # Runs last in this class: it shuts the shared server down.
        client = client_for(serving)
        client.drain()
        with pytest.raises(ServeClientError) as err:
            client.submit("Camel", "svr16", scale="tiny")
        assert err.value.status == 503
        assert serving.wait(15), "drained server did not shut down"
        states = {j.state for j in serving.queue.jobs()}
        assert states <= {"ok", "failed", "quarantined"}


# ---------------------------------------------------------------------------
# The ledger is the result cache: a restart serves it, and a record that
# fails its checksum is skipped and simulated again.
# ---------------------------------------------------------------------------

class TestLedgerCache:
    def serve_once(self, tmp_path, expect_cached: bool) -> tuple[dict, bytes]:
        server = start_server(tmp_path, workers=1, retries=0,
                              timeout_s=60.0)
        try:
            client = client_for(server)
            job = client.submit("Camel", "svr16", scale="tiny")
            assert job["cached"] is expect_cached
            final = client.wait(job["job_id"], timeout_s=60.0)
            assert final["job"]["state"] == "ok"
            return client.metrics(), client.result_bytes(job["key"])
        finally:
            stop_server(server)

    def test_restart_serves_the_ledger_and_reruns_a_corrupt_record(
            self, tmp_path):
        _, original = self.serve_once(tmp_path, expect_cached=False)
        # A restart on the same ledger answers from it, byte for byte.
        _, again = self.serve_once(tmp_path, expect_cached=True)
        assert again == original
        # A flipped digit fails the record's checksum: the restarted
        # server skips it and simulates the cell again, to the same
        # result.
        key = json.loads(original)["key"]
        flip_result_digit(tmp_path / "ledger.jsonl", key)
        with pytest.warns(RuntimeWarning, match="sha256 does not match"):
            metrics, rerun = self.serve_once(tmp_path, expect_cached=False)
        assert metrics["exec.journal_skipped_records"] >= 1
        assert json.loads(rerun)["result"] == json.loads(original)["result"]


# ---------------------------------------------------------------------------
# Fault drills: crash, hang, breaker quarantine.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chaos(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-chaos")
    faults = FaultPlan(specs=(parse_fault("Camel/*:crash:2"),
                              parse_fault("HJ2/*:crash:99"),
                              parse_fault("Kangr/*:hang:99")))
    server = start_server(tmp, timeout_s=1.5, retries=2, backoff_s=0.05,
                          max_backoff_s=0.2, breaker_threshold=2,
                          breaker_cooldown_s=300.0, drain_timeout_s=2.0,
                          faults=faults)
    yield server
    stop_server(server)


class TestFaultDrills:
    def test_worker_crash_is_retried_to_success(self, chaos):
        client = client_for(chaos)
        job = client.submit("Camel", "svr16", scale="tiny")
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["job"]["state"] == "ok"
        assert final["job"]["attempts"] == 3      # crash, crash, ok
        assert chaos.pool.restarts >= 2
        metrics = client.metrics()
        assert metrics["serve.worker_restart"] >= 2
        assert metrics["exec.retries"] >= 2

    def test_hung_worker_is_killed_and_job_fails_as_hang(self, chaos):
        client = client_for(chaos)
        job = client.submit("Kangr", "svr16", scale="tiny")
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["job"]["state"] == "failed"
        assert final["job"]["failure"]["kind"] == "hang"
        assert final["job"]["attempts"] == 3
        # Every wall-clock kill is counted and journaled, as under
        # run_cells.
        assert client.metrics()["exec.timeouts"] >= 3
        with open(chaos.config.ledger, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        timeouts = [r for r in records if r["event"] == "timeout"
                    and r["key"] == job["key"]]
        assert [r["attempt"] for r in timeouts] == [1, 2, 3]

    def test_breaker_opens_and_short_circuits_to_quarantined(self, chaos):
        client = client_for(chaos)
        for _ in range(2):                        # threshold is 2
            job = client.submit("HJ2", "svr16", scale="tiny")
            final = client.wait(job["job_id"], timeout_s=60.0)
            assert final["job"]["state"] == "failed"
            assert final["job"]["failure"]["kind"] == "crash"
        quarantined = client.submit("HJ2", "svr16", scale="tiny")
        assert quarantined["state"] == "quarantined"   # immediate verdict
        assert quarantined["failure"]["kind"] == "quarantined"
        assert "crash" in quarantined["failure"]["message"]
        health = client.health()
        assert any(entry["state"] == "open"
                   for entry in health["breaker"].values())
        metrics = client.metrics()
        assert metrics["serve.breaker_open"] >= 1
        assert metrics["serve.breaker_short_circuit"] >= 1
        assert metrics["serve.jobs_quarantined"] >= 1

    def test_server_survives_the_chaos(self, chaos):
        client = client_for(chaos)
        job = client.submit("PR_KR", "inorder", scale="tiny")
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["job"]["state"] == "ok"
        assert client.health()["status"] == "ok"


# ---------------------------------------------------------------------------
# Backpressure: bounded queue, coalescing.
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_flood_control_and_coalescing(self, tmp_path):
        server = start_server(
            tmp_path, workers=1, queue_limit=1, timeout_s=30.0, retries=0,
            drain_timeout_s=0.5,
            faults=FaultPlan(specs=(parse_fault("*/*:hang:99"),)))
        try:
            client = client_for(server)
            # The one worker takes a cell, which hangs in it.
            job = client.submit("G500", "svr16", scale="tiny")
            seen = job
            for _ in range(10):                 # long-poll, never sleep
                if seen["state"] == "running":
                    break
                seen = client.job(job["job_id"], wait_s=5.0,
                                  version=seen["version"])["job"]
            assert seen["state"] == "running"
            # A second cell waits in the queue, which is now full: a
            # third distinct cell is refused with a Retry-After hint.
            queued = client.submit("NAS-CG", "svr16", scale="tiny")
            assert queued["state"] == "queued"
            with pytest.raises(ServeClientError) as err:
                client.submit("BFS_KR", "svr16", scale="tiny")
            assert err.value.status == 429
            assert err.value.retry_after_s > 0
            assert "queue" in str(err.value)
            # Resubmitting the queued cell coalesces onto it, exempt
            # from the bound.
            rider = client.submit("NAS-CG", "svr16", scale="tiny")
            assert rider["coalesced"]
            assert rider["key"] == queued["key"]
            metrics = client.metrics()
            assert metrics["serve.rejected_queue_full"] >= 1
            assert metrics["serve.coalesced"] >= 1
            # Drain force-settles the hanging cell and the queued one:
            # every job, both riders included, reaches a terminal
            # verdict; nothing is stranded.
            server.request_drain("backpressure test done")
            assert server.wait(30)
            for job_id in (job["job_id"], queued["job_id"],
                           rider["job_id"]):
                tracked = server.queue.get(job_id)
                assert tracked.state == "failed"
                assert tracked.failure.kind == "hang"
        finally:
            stop_server(server)

"""Stdlib HTTP client for a running ``repro serve`` instance.

Used by the ``repro submit`` / ``repro jobs`` CLI subcommands, the test
suite and the CI smoke job.  A 429 from the bounded queue surfaces as
:class:`ServeClientError` carrying the server's ``Retry-After`` hint.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator


class ServeClientError(RuntimeError):
    """An HTTP-level refusal or failure from the serving endpoint."""

    def __init__(self, status: int, message: str,
                 retry_after_s: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after_s = retry_after_s


class ServeClient:
    """Thin JSON-over-HTTP client bound to one server base URL."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport ----------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> tuple[int, bytes]:
        headers = {"Accept": "application/json"}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers,
            method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = raw.decode(errors="replace")
            retry_after = exc.headers.get("Retry-After")
            raise ServeClientError(
                exc.code, message,
                float(retry_after) if retry_after else None) from None
        except urllib.error.URLError as exc:
            raise ServeClientError(
                0, f"cannot reach {self.base_url}: {exc.reason}") from None

    def _json(self, method: str, path: str,
              payload: dict | None = None) -> dict[str, Any]:
        _status, raw = self._request(method, path, payload)
        return json.loads(raw)

    # -- endpoints ----------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._json("GET", "/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        _status, raw = self._request("GET", "/metrics?format=prometheus")
        return raw.decode("utf-8")

    def history(self, last: int = 0) -> list[dict[str, Any]]:
        """Recent periodic samples from the server's metrics ring."""
        path = "/metrics/history" + (f"?last={last}" if last else "")
        return self._json("GET", path)["samples"]

    def jobs(self) -> list[dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id: str, wait_s: float | None = None,
            version: int | None = None) -> dict[str, Any]:
        """Fetch one job; ``wait_s`` long-polls until its version
        exceeds *version* (or any change when *version* is omitted),
        returning the current state on timeout."""
        path = f"/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
            if version is not None:
                path += f"&version={version}"
        return self._json("GET", path)

    def events(self, limit: int = 0, replay: int = 0,
               heartbeats: bool = False) -> Iterator[dict[str, Any]]:
        """Stream ``/events`` as parsed ndjson dicts.

        ``limit`` bounds the stream server-side (it closes after that
        many real events); heartbeat keepalives are filtered out unless
        *heartbeats* is set.  urllib undoes the chunked transfer
        encoding, so each iterated line is one event.
        """
        query = []
        if limit:
            query.append(f"limit={limit}")
        if replay:
            query.append(f"replay={replay}")
        path = "/events" + ("?" + "&".join(query) if query else "")
        headers = {"Accept": "application/x-ndjson"}
        request = urllib.request.Request(self.base_url + path,
                                         headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                for line in resp:
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if (event.get("event") == "heartbeat"
                            and not heartbeats):
                        continue
                    yield event
        except urllib.error.URLError as exc:
            raise ServeClientError(
                0, f"cannot stream {self.base_url}{path}: "
                   f"{getattr(exc, 'reason', exc)}") from None

    def result_bytes(self, key: str) -> bytes:
        """Raw ``/results/<key>`` bytes: the cell's ledger record
        (byte-identity checks)."""
        _status, raw = self._request("GET", f"/results/{key}")
        return raw

    def drain(self) -> dict[str, Any]:
        return self._json("POST", "/admin/drain")

    def submit(self, workload: str, technique: str, *,
               scale: str = "bench", warmup: int | None = None,
               measure: int | None = None) -> dict[str, Any]:
        """Submit one cell; returns the job dict (state may already be
        terminal for cache hits and quarantined configs)."""
        payload: dict[str, Any] = {"workload": workload,
                                   "technique": technique, "scale": scale}
        if warmup is not None:
            payload["warmup"] = warmup
        if measure is not None:
            payload["measure"] = measure
        return self._json("POST", "/jobs", payload)["job"]

    def wait(self, job_id: str, timeout_s: float = 300.0,
             poll_s: float = 0.2) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns the
        final ``{"job": ..., "result": ...}`` payload.

        Long-polls ``GET /jobs/<id>?wait=...`` so state flips surface
        immediately; *poll_s* only paces the loop when the server
        answers without blocking (old servers, instant changes).
        """
        deadline = time.monotonic() + timeout_s
        version: int | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    0, f"job {job_id} not terminal after {timeout_s:g}s")
            chunk = min(remaining, 15.0, max(self.timeout_s - 5.0, 1.0))
            payload = self.job(job_id, wait_s=chunk, version=version)
            job = payload["job"]
            if job["state"] in ("ok", "failed", "quarantined"):
                return payload
            new_version = job.get("version")
            if new_version is not None and new_version == version:
                time.sleep(poll_s)     # nothing changed; don't spin
            version = new_version

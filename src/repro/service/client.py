"""A small blocking client for the evaluation service.

Used by the CI smoke test, the service bench and scripts; tests use it
against in-process servers.  Stdlib only (:mod:`http.client`).

Transient failures are retried with exponential backoff and full
jitter: connection errors, 5xx responses and 429 rejections (honouring
the server's ``Retry-After`` hint).  When a 429 survives every retry, a
typed :class:`ServiceOverloadError` surfaces so callers can shed load
deliberately rather than pattern-match on message text.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ReproError


class ServiceClientError(ReproError):
    """The service answered with an error status."""

    def __init__(
        self, status: int, message: str, code: Optional[str] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code


class ServiceOverloadError(ServiceClientError):
    """Admission control kept answering 429 until retries ran out."""

    def __init__(
        self, message: str, retry_after_s: Optional[float] = None
    ) -> None:
        super().__init__(429, message, code="overloaded")
        self.retry_after_s = retry_after_s


def _parse_error(
    document: Dict[str, Any],
) -> Tuple[Optional[str], str, Optional[float]]:
    """(code, message, retry_after_s) from a structured or bare body."""
    error = document.get("error", document)
    if isinstance(error, dict):
        retry_after = error.get("retry_after_s")
        return (
            error.get("code"),
            str(error.get("message", error)),
            float(retry_after) if retry_after is not None else None,
        )
    return None, str(error), None


#: Statuses worth retrying: overload (429) and transient server trouble.
_RETRY_STATUSES = frozenset({429, 500, 502, 503})


class ServiceClient:
    """Talks to one ``repro serve`` instance.

    ``max_retries`` bounds *re*-attempts on transient failures (0
    disables retrying); ``backoff_s`` / ``backoff_cap_s`` shape the
    exponential backoff between them, always with full jitter.  ``rng``
    is injectable for deterministic tests.  Every retried request here
    is idempotent by construction — submissions are content-addressed,
    queries are reads — so a retry after an ambiguous failure is safe.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 60.0,
        max_retries: int = 4,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """One round trip; returns (status, headers, document)."""
        if query:
            path = path + "?" + urllib.parse.urlencode(query, doseq=True)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            connection.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers=dict(
                    {"Content-Type": "application/json"}, **(headers or {})
                ),
            )
            response = connection.getresponse()
            document = json.loads(response.read().decode() or "{}")
            headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, headers, document
        finally:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One request/response round trip; returns (status, document).

        No retries at this level — this is the raw protocol surface
        tests poke at; :meth:`_ok` (and everything built on it) layers
        the retry policy on top.
        """
        status, _headers, document = self._roundtrip(
            method, path, body=body, query=query, timeout=timeout
        )
        return status, document

    def _backoff(
        self, attempt: int, retry_after_s: Optional[float] = None
    ) -> None:
        """Sleep before retry ``attempt``: exp backoff + full jitter,
        never shorter than the server's ``Retry-After`` hint."""
        delay = min(self.backoff_cap_s, self.backoff_s * (2.0**attempt))
        delay *= 1.0 + self._rng.random()
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        time.sleep(delay)

    def _ok(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        retryable: bool = True,
    ) -> Dict[str, Any]:
        attempts = (self.max_retries if retryable else 0) + 1
        retry_after: Optional[float] = None
        for attempt in range(attempts):
            last = attempt == attempts - 1
            try:
                status, headers, document = self._roundtrip(
                    method, path, body=body, query=query, timeout=timeout
                )
            except (OSError, http.client.HTTPException):
                # Connection refused / reset mid-flight.  Idempotent
                # requests simply go again.
                if last:
                    raise
                self._backoff(attempt)
                continue
            if status < 400:
                return document
            code, message, body_retry_after = _parse_error(document)
            retry_after = body_retry_after
            if retry_after is None and "retry-after" in headers:
                try:
                    retry_after = float(headers["retry-after"])
                except ValueError:
                    retry_after = None
            if status == 429:
                if last:
                    raise ServiceOverloadError(
                        message, retry_after_s=retry_after
                    )
                self._backoff(attempt, retry_after)
                continue
            if status in _RETRY_STATUSES and not last:
                self._backoff(attempt, retry_after)
                continue
            raise ServiceClientError(status, message, code=code)
        raise AssertionError("unreachable")  # loop always returns/raises

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._ok("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``."""
        return self._ok("GET", "/stats")

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode()
            if response.status >= 400:
                raise ServiceClientError(response.status, text.strip())
            return text
        finally:
            connection.close()

    def submit_evaluate(self, **request: Any) -> Dict[str, Any]:
        """``POST /v1/evaluate``; returns the job document."""
        return self._ok("POST", "/v1/evaluate", body=request)["job"]

    def submit_suite(self, **request: Any) -> Dict[str, Any]:
        """``POST /v1/suite``; returns the job document."""
        return self._ok("POST", "/v1/suite", body=request)["job"]

    def submit_campaign(self, **request: Any) -> Dict[str, Any]:
        """``POST /v1/campaign``; returns the job document."""
        return self._ok("POST", "/v1/campaign", body=request)["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>``."""
        return self._ok("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> Any:
        """``GET /v1/jobs``."""
        return self._ok("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, Any]:
        """Long-poll ``GET /v1/jobs/<id>?wait=1`` until terminal.

        Each poll blocks server-side up to 30s (the server itself caps
        any single wait), so waiting costs one request per half-minute
        rather than a tight loop.  A 504 ``wait_timeout`` answer just
        means "not finished yet": the loop re-polls until the *client*
        deadline runs out.
        """
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout}s"
                )
            poll = min(30.0, remaining)
            try:
                status, document = self.request(
                    "GET",
                    f"/v1/jobs/{job_id}",
                    query={"wait": "1", "timeout": f"{poll:.1f}"},
                    timeout=poll + self.timeout,
                )
            except (OSError, http.client.HTTPException):
                self._backoff(min(attempt, 5))
                attempt += 1
                continue
            attempt = 0
            if status == 504:
                continue  # server-side wait cap; poll again
            if status >= 400:
                code, message, _retry = _parse_error(document)
                raise ServiceClientError(status, message, code=code)
            job = document["job"]
            if job["status"] in ("done", "failed"):
                return job

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/result``."""
        return self._ok("GET", f"/v1/jobs/{job_id}/result")

    def timeline(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/timeline``: the job's distributed trace."""
        return self._ok("GET", f"/v1/jobs/{job_id}/timeline")

    def debug_events(self, **query: Any) -> Dict[str, Any]:
        """``GET /v1/debug/events``: the service's flight recorder.

        Accepts ``trace=``, ``kind=`` and ``limit=`` filters; returns
        ``{"events": [...], "stats": {...}}``.
        """
        return self._ok("GET", "/v1/debug/events", query=query)

    def events(self, job_id: str, timeout: float = 600.0) -> Iterator[Dict[str, Any]]:
        """Stream ``GET /v1/jobs/<id>/events`` as parsed dicts."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                document = json.loads(response.read().decode() or "{}")
                code, message, _retry = _parse_error(document)
                raise ServiceClientError(response.status, message, code=code)
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # the fleet worker protocol
    # ------------------------------------------------------------------
    def fleet_lease(
        self,
        worker: str,
        max_jobs: int = 1,
        ttl: Optional[float] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/fleet/lease``: pull up to ``max_jobs`` jobs."""
        body: Dict[str, Any] = {"worker": worker, "max_jobs": max_jobs}
        if ttl is not None:
            body["ttl"] = ttl
        return self._ok("POST", "/v1/fleet/lease", body=body, retryable=False)

    def fleet_complete(
        self, worker: str, token: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/fleet/complete``: post a finished job's payload."""
        return self._ok(
            "POST",
            "/v1/fleet/complete",
            body={"worker": worker, "token": token, "payload": payload},
            retryable=False,
        )

    def fleet_renew(
        self,
        worker: str,
        tokens: list,
        ttl: Optional[float] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/fleet/renew``: heartbeat held leases."""
        body: Dict[str, Any] = {"worker": worker, "tokens": tokens}
        if ttl is not None:
            body["ttl"] = ttl
        return self._ok("POST", "/v1/fleet/renew", body=body, retryable=False)

    def fleet_release(self, worker: str, token: str) -> Dict[str, Any]:
        """``POST /v1/fleet/release``: hand a leased job back."""
        return self._ok(
            "POST",
            "/v1/fleet/release",
            body={"worker": worker, "token": token},
            retryable=False,
        )

    def fleet_drain(self) -> Dict[str, Any]:
        """``POST /v1/fleet/drain``: stop granting new leases."""
        return self._ok("POST", "/v1/fleet/drain")

    # ------------------------------------------------------------------
    def query(self, op: str, **params: Any) -> Dict[str, Any]:
        """``GET /v1/query/<op>``: the op's ``run_query`` document.

        ``params`` are the query parameters: ``selector`` (``a`` and
        ``b`` for ``diff``), ``benchmark`` and ``metric``.
        """
        return self._ok("GET", f"/v1/query/{op}", query=params)

"""A stdlib-only asyncio HTTP/1.1 front-end for the job manager.

No web framework exists in the target environment, and none is needed:
the protocol surface is small (JSON in, JSON or an ndjson event stream
out), so this module speaks just enough HTTP — request line, headers,
``Content-Length`` bodies, close-delimited responses — over
:func:`asyncio.start_server`.  One connection carries one request;
every response closes the connection, which keeps the parser trivial
and makes streaming endpoints natural (the stream *is* the body, the
close is the terminator).

Endpoints (see ``docs/service.md`` for the full contract):

* ``GET  /healthz`` — liveness + job counts,
* ``GET  /stats`` — dedup/executor counters + warehouse summary,
* ``POST /v1/evaluate | /v1/suite | /v1/campaign`` — submit a job,
* ``GET  /v1/jobs`` — list jobs,
* ``GET  /v1/jobs/<id>[?wait=1]`` — job status (optionally long-poll),
* ``GET  /v1/jobs/<id>/result`` — the result document,
* ``GET  /v1/jobs/<id>/events`` — ndjson event stream until terminal,
* ``GET  /v1/jobs/<id>/timeline`` — the job's live distributed trace,
* ``GET  /v1/query/<op>[?selector=<sel>]`` (``?a=<sel>&b=<sel>`` for
  ``diff``) — one warehouse query per op of
  :data:`~repro.warehouse.queries.QUERY_OPS`, answered by
  :func:`~repro.warehouse.queries.run_query`,
* ``POST /v1/fleet/lease | complete | renew | release | drain`` — the
  worker-pull fleet protocol (see ``docs/fleet.md``),
* ``GET  /v1/debug/events[?trace=<id>&kind=<k>&limit=<n>]`` — the
  flight recorder (see ``docs/observability.md``),
* ``GET  /metrics`` — Prometheus text exposition of the process-wide
  metrics registry.

Distributed-trace context rides the ``X-Repro-Trace`` header (or a
``trace`` body field) on submissions; the service mints an id when
neither is given and returns it in the job document.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from repro import chaos
from repro.fleet.queue import FleetError
from repro.service.jobs import JobManager, ServiceError, ServiceOverloadError
from repro.telemetry import (
    counter,
    flight_recorder,
    histogram,
    record_event,
    render_prometheus,
)
from repro.warehouse.db import WarehouseError
from repro.warehouse.queries import QUERY_OPS, run_query

#: Per-request accounting, labelled by the *normalized* endpoint (job
#: ids and query ops collapse to templates, so label cardinality stays
#: bounded no matter what clients request).
_REQUESTS = counter(
    "repro_service_requests_total",
    "HTTP requests served, by endpoint",
)
_REQUEST_SECONDS = histogram(
    "repro_service_request_seconds",
    "HTTP request handling time, by endpoint",
)

#: Content type Prometheus expects from a text-format scrape.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _endpoint_label(path: str) -> str:
    """Collapse a request path to a bounded-cardinality endpoint label."""
    fixed = {
        "/healthz",
        "/stats",
        "/metrics",
        "/v1/evaluate",
        "/v1/suite",
        "/v1/campaign",
        "/v1/jobs",
        "/v1/debug/events",
    }
    if path in fixed:
        return path
    if path.startswith("/v1/jobs/"):
        tail = path[len("/v1/jobs/"):].split("/")
        if len(tail) > 1 and tail[1] in ("result", "events", "timeline"):
            return f"/v1/jobs/{{id}}/{tail[1]}"
        return "/v1/jobs/{id}"
    if path.startswith("/v1/query/"):
        op = path[len("/v1/query/"):]
        if op in QUERY_OPS:
            return f"/v1/query/{op}"
    if path.startswith("/v1/fleet/"):
        op = path[len("/v1/fleet/"):]
        if op in ("lease", "complete", "renew", "release", "drain"):
            return f"/v1/fleet/{op}"
    return "other"

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request line + headers block.
MAX_HEADER_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Machine-readable error codes by status (overridable per error).
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    409: "conflict",
    413: "payload_too_large",
    429: "overloaded",
    500: "internal",
    503: "unavailable",
    504: "wait_timeout",
}


class _HttpError(Exception):
    def __init__(
        self, status: int, message: str, code: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code


def _head(
    status: int,
    content_type: str,
    length: Optional[int],
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _json_response(
    status: int,
    body: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    encoded = (json.dumps(body, sort_keys=True) + "\n").encode()
    return (
        _head(status, "application/json", len(encoded), extra_headers)
        + encoded
    )


def _json_error(
    status: int,
    message: str,
    code: Optional[str] = None,
    retry_after_s: Optional[float] = None,
    **extra: Any,
) -> bytes:
    """A structured error response: ``{"error": {"code", "message"}}``.

    ``retry_after_s`` additionally emits a ``Retry-After`` header (in
    whole seconds, rounded up) and mirrors the precise value in the
    body for clients that parse JSON rather than headers.
    """
    error: Dict[str, Any] = {
        "code": code or _DEFAULT_CODES.get(status, "error"),
        "message": message,
    }
    headers = None
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
        headers = {"Retry-After": str(max(1, int(-(-retry_after_s // 1))))}
    return _json_response(status, {"error": error, **extra}, headers)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[
    str, str, Dict[str, Any], Dict[str, str], Optional[Dict[str, Any]]
]:
    """(method, path, query, headers, body); raises ``_HttpError``."""
    try:
        header_blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as error:
        raise _HttpError(413, "header block too large") from error
    except asyncio.IncompleteReadError as error:
        raise _HttpError(400, "truncated request") from error
    if len(header_blob) > MAX_HEADER_BYTES:
        raise _HttpError(413, "header block too large")
    try:
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        method, target, _protocol = head.split(" ", 2)
    except ValueError as error:
        raise _HttpError(400, "malformed request line") from error
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = {
        name: values
        for name, values in urllib.parse.parse_qs(parsed.query).items()
    }
    body = None
    try:
        length = int(headers.get("content-length", 0) or 0)
    except ValueError as error:
        raise _HttpError(400, "malformed Content-Length") from error
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise _HttpError(400, "truncated body") from error
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise _HttpError(400, "body must be a JSON object")
    return method.upper(), parsed.path, query, headers, body


def _single(query: Dict[str, Any], name: str) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None


class ServiceServer:
    """Binds a :class:`JobManager` (and optional warehouse) to a socket."""

    #: Server-side cap on ``?wait=`` long-polls and the idle window of
    #: an ``/events`` stream: no handler blocks unboundedly on a job
    #: that never finishes — the client gets a 504 (or a terminal
    #: ``stream_timeout`` record) and re-polls.
    MAX_WAIT_S = 60.0

    #: Long-poll length when ``?wait=1`` gives no explicit timeout.
    DEFAULT_WAIT_S = 30.0

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._manager = manager
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` main loop)."""
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and shut the manager down.

        The manager closes *before* we wait on open handlers: closing
        it drives every live job terminal, which is what unblocks any
        connection still streaming ``/events`` or long-polling
        ``?wait=`` (the drain-while-streaming path).
        """
        if self._server is not None:
            self._server.close()  # stop accepting; handlers continue
        await self._manager.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        path = ""
        headers: Dict[str, str] = {}
        try:
            try:
                method, path, query, headers, body = await _read_request(
                    reader
                )
                injector = chaos.active()
                if injector is not None and path.startswith("/v1/"):
                    fault = injector.http_fault()
                    if fault is not None:
                        record_event(
                            "chaos.http_fault",
                            trace=headers.get("x-repro-trace"),
                            fault=fault,
                            path=_endpoint_label(path),
                        )
                    if fault == "reset":
                        # Die mid-air: no response, no FIN handshake —
                        # clients see a connection reset.
                        writer.transport.abort()
                        return
                    if fault == "error":
                        writer.write(
                            _json_error(
                                503,
                                "injected fault (active chaos plan)",
                                code="chaos_injected",
                            )
                        )
                        await writer.drain()
                        return
                endpoint = _endpoint_label(path)
                started = time.perf_counter()
                try:
                    await self._route(
                        writer, method, path, query, headers, body
                    )
                finally:
                    _REQUESTS.inc(endpoint=endpoint)
                    _REQUEST_SECONDS.observe(
                        time.perf_counter() - started, endpoint=endpoint
                    )
            except _HttpError as error:
                writer.write(
                    _json_error(error.status, error.message, code=error.code)
                )
            except ServiceOverloadError as error:
                writer.write(
                    _json_error(
                        429,
                        str(error),
                        code="overloaded",
                        retry_after_s=error.retry_after_s,
                    )
                )
            except (ServiceError, FleetError) as error:
                writer.write(_json_error(400, str(error)))
            except Exception as error:  # never kill the accept loop
                record_event(
                    "http.internal_error",
                    trace=headers.get("x-repro-trace"),
                    path=_endpoint_label(path),
                    error=repr(error),
                )
                writer.write(
                    _json_error(500, f"internal error: {error!r}")
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, Any],
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> None:
        manager = self._manager
        if path == "/healthz" and method == "GET":
            jobs = manager.jobs()
            writer.write(
                _json_response(
                    200,
                    {
                        "status": "ok",
                        "jobs": len(jobs),
                        "running": sum(
                            1 for job in jobs if job.status == "running"
                        ),
                    },
                )
            )
            return
        if path == "/metrics" and method == "GET":
            encoded = render_prometheus().encode()
            writer.write(
                _head(200, METRICS_CONTENT_TYPE, len(encoded)) + encoded
            )
            return
        if path == "/stats" and method == "GET":
            stats: Dict[str, Any] = {"jobs": dict(manager.stats)}
            stats["admission"] = {
                "active": manager.active_by_class(),
                "limits": {
                    "interactive": manager.admission.max_interactive,
                    "batch": manager.admission.max_batch,
                },
            }
            stats["fleet"] = manager.fleet.stats()
            if manager.warehouse is not None:
                stats["warehouse"] = manager.warehouse.summary()
            if manager.store is not None:
                stats["store"] = {
                    "root": str(manager.store.root),
                    "entries": len(manager.store),
                }
            writer.write(_json_response(200, stats))
            return
        if path in ("/v1/evaluate", "/v1/suite", "/v1/campaign"):
            if method != "POST":
                raise _HttpError(405, f"{path} takes POST")
            submit = {
                "/v1/evaluate": manager.submit_evaluate,
                "/v1/suite": manager.submit_suite,
                "/v1/campaign": manager.submit_campaign,
            }[path]
            request = dict(body or {})
            # The deadline rides either in the body (``deadline_s``) or
            # as a header; an explicit body field wins.
            header_deadline = headers.get("x-repro-deadline")
            if header_deadline is not None and "deadline_s" not in request:
                request["deadline_s"] = header_deadline
            # Same for trace context: header or ``trace`` body field.
            header_trace = headers.get("x-repro-trace")
            if header_trace is not None and "trace" not in request:
                request["trace"] = header_trace
            job = submit(request)
            status = 200 if job.finished else 202
            writer.write(_json_response(status, {"job": job.describe()}))
            return
        if path == "/v1/jobs" and method == "GET":
            writer.write(
                _json_response(
                    200, {"jobs": [job.describe() for job in manager.jobs()]}
                )
            )
            return
        if path.startswith("/v1/jobs/"):
            await self._route_job(writer, method, path, query)
            return
        if path.startswith("/v1/query/"):
            self._route_query(writer, method, path, query)
            return
        if path.startswith("/v1/fleet/"):
            self._route_fleet(writer, method, path, body)
            return
        if path == "/v1/debug/events" and method == "GET":
            recorder = flight_recorder()
            raw_limit = _single(query, "limit")
            try:
                limit = int(raw_limit) if raw_limit else None
            except ValueError as error:
                raise _HttpError(400, "malformed limit") from error
            writer.write(
                _json_response(
                    200,
                    {
                        "events": recorder.events(
                            trace=_single(query, "trace"),
                            kind=_single(query, "kind"),
                            limit=limit,
                        ),
                        "stats": recorder.stats(),
                    },
                )
            )
            return
        raise _HttpError(404, f"no such endpoint: {method} {path}")

    # ------------------------------------------------------------------
    # the worker-pull fleet protocol
    # ------------------------------------------------------------------
    #: Accepted lease TTL range: long enough to be renewable over a slow
    #: link, short enough that a dead worker's jobs requeue promptly.
    _FLEET_TTL_RANGE = (1.0, 900.0)

    def _route_fleet(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
    ) -> None:
        if method != "POST":
            raise _HttpError(405, "fleet endpoints take POST")
        fleet = self._manager.fleet
        op = path[len("/v1/fleet/"):]
        body = body or {}

        def ttl_of() -> Optional[float]:
            raw = body.get("ttl")
            if raw is None:
                return None
            try:
                ttl = float(raw)
            except (TypeError, ValueError) as error:
                raise _HttpError(400, "malformed ttl") from error
            low, high = self._FLEET_TTL_RANGE
            return min(high, max(low, ttl))

        def worker_of() -> str:
            worker = body.get("worker")
            if not worker or not isinstance(worker, str):
                raise _HttpError(400, "fleet requests need a 'worker' id")
            return worker

        if op == "drain":
            self._manager.drain()
            writer.write(_json_response(200, {"draining": True}))
            return
        if op == "lease":
            fleet.ensure_sweeper()
            try:
                max_jobs = int(body.get("max_jobs", 1))
            except (TypeError, ValueError) as error:
                raise _HttpError(400, "malformed max_jobs") from error
            grants = fleet.lease(
                worker_of(), max_jobs=max(1, min(64, max_jobs)), ttl=ttl_of()
            )
            writer.write(
                _json_response(
                    200,
                    {
                        "leases": [grant.to_dict() for grant in grants],
                        "draining": fleet.draining,
                        "pending": fleet.queue.stats()["pending"],
                    },
                )
            )
            return
        if op == "complete":
            token = body.get("token")
            payload = body.get("payload")
            if not token or not isinstance(token, str):
                raise _HttpError(400, "complete needs the lease 'token'")
            if not isinstance(payload, dict) or "status" not in payload:
                raise _HttpError(
                    400, "complete needs a job 'payload' with a status"
                )
            accepted, reason = fleet.complete(worker_of(), token, payload)
            writer.write(
                _json_response(200, {"accepted": accepted, "reason": reason})
            )
            return
        if op == "renew":
            tokens = body.get("tokens")
            if not isinstance(tokens, list):
                raise _HttpError(400, "renew needs a 'tokens' list")
            outcome = fleet.renew(worker_of(), tokens, ttl=ttl_of())
            writer.write(
                _json_response(200, {**outcome, "draining": fleet.draining})
            )
            return
        if op == "release":
            token = body.get("token")
            if not token or not isinstance(token, str):
                raise _HttpError(400, "release needs the lease 'token'")
            released = fleet.release(worker_of(), token)
            writer.write(_json_response(200, {"released": released}))
            return
        raise _HttpError(404, f"no such fleet endpoint: {path}")

    async def _route_job(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, Any],
    ) -> None:
        if method != "GET":
            raise _HttpError(405, "job endpoints take GET")
        parts = path[len("/v1/jobs/"):].split("/")
        job = self._manager.job(parts[0])
        if job is None:
            raise _HttpError(404, f"no such job: {parts[0]}")
        tail = parts[1] if len(parts) > 1 else ""
        if tail == "":
            if _single(query, "wait"):
                timeout = _single(query, "timeout")
                try:
                    seconds = (
                        float(timeout) if timeout else self.DEFAULT_WAIT_S
                    )
                except ValueError as error:
                    raise _HttpError(400, "malformed timeout") from error
                # Server-side cap: a long-poll never outlives MAX_WAIT_S
                # even when the client asks for more (or for 'forever').
                seconds = max(0.0, min(self.MAX_WAIT_S, seconds))
                try:
                    job = await self._manager.wait(job.id, seconds)
                except (asyncio.TimeoutError, TimeoutError):
                    writer.write(
                        _json_error(
                            504,
                            f"job {job.id} still {job.status} after "
                            f"{seconds:g}s (server cap "
                            f"{self.MAX_WAIT_S:g}s); poll again",
                            code="wait_timeout",
                            job=job.describe(),
                        )
                    )
                    return
            writer.write(_json_response(200, {"job": job.describe()}))
            return
        if tail == "result":
            if not job.finished:
                raise _HttpError(409, f"job {job.id} is {job.status}")
            if job.status == "failed":
                writer.write(
                    _json_response(
                        200, {"job": job.describe(), "result": None}
                    )
                )
                return
            writer.write(
                _json_response(
                    200, {"job": job.describe(), "result": job.result}
                )
            )
            return
        if tail == "events":
            await self._stream_events(writer, job)
            return
        if tail == "timeline":
            timeline = self._manager.timeline(job.id)
            if timeline is None:
                raise _HttpError(
                    404, f"job {job.id} has no trace", code="no_trace"
                )
            writer.write(_json_response(200, timeline))
            return
        raise _HttpError(404, f"no such job endpoint: {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter, job) -> None:
        """ndjson event stream: replay history, follow live, then close.

        The stream is bounded: after :attr:`MAX_WAIT_S` with no new
        events it emits a ``stream_timeout`` record and closes, so a
        stalled job cannot pin a connection (and its handler) forever.
        """
        writer.write(_head(200, "application/x-ndjson", None))
        queue = job.subscribe()
        try:
            while True:
                try:
                    record = await asyncio.wait_for(
                        queue.get(), timeout=self.MAX_WAIT_S
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    record = {
                        "event": "stream_timeout",
                        "job": job.id,
                        "t": time.time(),
                        "idle_s": self.MAX_WAIT_S,
                    }
                    writer.write(
                        (json.dumps(record, sort_keys=True) + "\n").encode()
                    )
                    break
                if record is None:
                    break
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n").encode()
                )
                await writer.drain()
        finally:
            job.unsubscribe(queue)

    def _route_query(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, Any],
    ) -> None:
        if method != "GET":
            raise _HttpError(405, "query endpoints take GET")
        warehouse = self._manager.warehouse
        if warehouse is None:
            raise _HttpError(404, "service is running without a warehouse")
        op = path[len("/v1/query/"):]
        if op not in QUERY_OPS:
            raise _HttpError(404, f"no such query: {op}")
        names = ("a", "b") if op == "diff" else ("selector",)
        selectors = [_single(query, name) for name in names]
        try:
            document = run_query(
                warehouse,
                op,
                [selector for selector in selectors if selector],
                benchmark=_single(query, "benchmark"),
                metric=_single(query, "metric") or "ed2_ratio",
            )
        except WarehouseError as error:
            raise _HttpError(404, str(error)) from error
        except ValueError as error:
            raise _HttpError(400, str(error)) from error
        writer.write(_json_response(200, document))


# ----------------------------------------------------------------------
# embedding helper (tests, benches, notebooks)
# ----------------------------------------------------------------------
class ThreadedService:
    """A service running on a dedicated event-loop thread."""

    def __init__(self, server: ServiceServer, thread: threading.Thread, loop):
        self.server = server
        self._thread = thread
        self._loop = loop
        self.host, self.port = server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the server down and join its thread.

        The timeout is generous: a loaded box can starve the loop
        thread for seconds, and a slow clean shutdown beats a spurious
        ``TimeoutError`` from a drain that was about to finish.
        """
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self._loop
        ).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ThreadedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    manager_factory,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_timeout: float = 10.0,
) -> ThreadedService:
    """Start a service on a fresh event-loop thread and wait for bind.

    ``manager_factory`` is called *on the loop thread* (managers and
    their asyncio primitives must be born on their loop) and must return
    a :class:`JobManager`.
    """
    started = threading.Event()
    box: Dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ServiceServer(manager_factory(), host=host, port=port)
        loop.run_until_complete(server.start())
        box["server"], box["loop"] = server, loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(ready_timeout):
        raise RuntimeError("service failed to start within timeout")
    return ThreadedService(box["server"], thread, box["loop"])

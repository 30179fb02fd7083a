"""The load harness: Poisson arrivals, mixed traffic, SLO checks.

Everything here is stdlib + :mod:`repro.telemetry`.  The client side is
a minimal asyncio HTTP/1.1 implementation (one request per connection,
mirroring the server's contract), so thousands of concurrent in-flight
requests cost one task + one socket each — no thread per client.

The generator is **open-loop**: arrivals follow a seeded exponential
inter-arrival process at the offered rate regardless of how fast the
server answers, which is what exposes overload behavior — a closed
loop would politely self-throttle and hide it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import tempfile
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.telemetry import HistogramData, get_logger

_log = get_logger("loadgen")


class LoadgenError(ReproError):
    """The load run could not be performed (bad profile, no server)."""


#: Benchmarks the mixed profile rotates through (kept small so dedup
#: behaves like production traffic: many requests, few distinct keys).
_BENCHMARKS = (
    "171.swim",
    "172.mgrid",
    "168.wupwise",
    "173.applu",
    "178.galgel",
    "301.apsi",
)


# ----------------------------------------------------------------------
# a minimal async HTTP/1.1 client (one request per connection)
# ----------------------------------------------------------------------
async def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any]]:
    """One round trip; returns (status, document).

    Raises ``OSError`` on connection failure/reset and
    ``asyncio.TimeoutError`` when the whole exchange exceeds
    ``timeout`` — callers classify those as transport errors.
    """

    async def exchange() -> Tuple[int, Dict[str, Any]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = b"" if body is None else json.dumps(body).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Connection: close\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "\r\n"
            )
            writer.write(head.encode() + payload)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionResetError("no response (connection reset)")
            try:
                status = int(status_line.split(b" ", 2)[1])
            except (IndexError, ValueError):
                raise ConnectionResetError(
                    f"malformed status line: {status_line!r}"
                ) from None
            length: Optional[int] = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            raw = (
                await reader.readexactly(length)
                if length is not None
                else await reader.read()
            )
            document = json.loads(raw.decode() or "{}")
            return status, document
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    return await asyncio.wait_for(exchange(), timeout)


# ----------------------------------------------------------------------
# traffic profiles
# ----------------------------------------------------------------------
def _mixed_request(
    rng: random.Random, scale: float, seed: int, queries: List[str]
) -> Tuple[str, str, str, Optional[Dict[str, Any]]]:
    """(kind, method, path, body) for one arrival of the mixed profile."""
    draw = rng.random()
    if draw < 0.60:
        return (
            "evaluate",
            "POST",
            "/v1/evaluate",
            {
                "benchmark": rng.choice(_BENCHMARKS),
                "scale": scale,
                "buses": rng.choice((1, 2)),
            },
        )
    if draw < 0.62:
        return "suite", "POST", "/v1/suite", {"scale": scale}
    if draw < 0.70:
        return (
            "campaign",
            "POST",
            "/v1/campaign",
            {
                "benchmarks": list(_BENCHMARKS[:2]),
                "scale": scale,
                "buses_grid": [1, 2],
                "label": f"loadgen-{seed}-{rng.randrange(3)}",
            },
        )
    return "query", "GET", rng.choice(queries), None


def _evaluate_request(
    rng: random.Random, scale: float, seed: int, queries: List[str]
) -> Tuple[str, str, str, Optional[Dict[str, Any]]]:
    """Submission-only profile: every arrival is an evaluate."""
    return (
        "evaluate",
        "POST",
        "/v1/evaluate",
        {
            "benchmark": rng.choice(_BENCHMARKS),
            "scale": scale,
            "buses": rng.choice((1, 2)),
        },
    )


PROFILES: Dict[str, Callable[..., Tuple]] = {
    "mixed": _mixed_request,
    "evaluate": _evaluate_request,
}


def _quantile(samples: List[float], q: float) -> float:
    """Exact (nearest-rank) quantile of a non-empty sorted sample list."""
    if not samples:
        return 0.0
    index = min(len(samples) - 1, max(0, int(q * len(samples))))
    return samples[index]


def _latency_summary(samples: List[float]) -> Dict[str, Any]:
    ordered = sorted(samples)
    histogram = HistogramData()
    for sample in ordered:
        histogram.observe(sample)
    return {
        "count": len(ordered),
        "mean_ms": 1e3 * (sum(ordered) / len(ordered)) if ordered else 0.0,
        "p50_ms": 1e3 * _quantile(ordered, 0.50),
        "p95_ms": 1e3 * _quantile(ordered, 0.95),
        "p99_ms": 1e3 * _quantile(ordered, 0.99),
        "max_ms": 1e3 * ordered[-1] if ordered else 0.0,
        "histogram": histogram.to_dict(),
    }


# ----------------------------------------------------------------------
# the load run
# ----------------------------------------------------------------------
async def run_load(
    host: str,
    port: int,
    rate: float = 50.0,
    duration: float = 10.0,
    profile: str = "mixed",
    seed: int = 0,
    scale: float = 0.01,
    deadline_s: Optional[float] = None,
    max_in_flight: int = 2000,
    healthz_hz: float = 20.0,
    drain_timeout: float = 120.0,
    request_timeout: float = 30.0,
) -> Dict[str, Any]:
    """Drive one open-loop load window; returns the report dict.

    ``rate`` is the offered arrival rate (requests/second), ``duration``
    the generation window.  After the window the harness waits (up to
    ``drain_timeout``) for every job it submitted to reach a terminal
    state, so goodput counts *completed* work, not accepted promises.
    """
    if rate <= 0 or duration <= 0:
        raise LoadgenError("rate and duration must be positive")
    build = PROFILES.get(profile)
    if build is None:
        raise LoadgenError(
            f"unknown profile {profile!r} (have: {', '.join(PROFILES)})"
        )
    rng = random.Random(seed)
    loop = asyncio.get_running_loop()

    # Discover the server shape once (and fail fast when it's absent).
    try:
        _status, stats_doc = await http_json(
            host, port, "GET", "/stats", timeout=request_timeout
        )
    except (OSError, asyncio.TimeoutError) as error:
        raise LoadgenError(
            f"no service at {host}:{port}: {error}"
        ) from error
    queries = ["/stats", "/v1/jobs"]
    if "warehouse" in stats_doc:
        queries.append("/v1/query/campaigns")

    latencies: Dict[str, List[float]] = {}
    statuses: Dict[str, int] = {}
    jobs_seen: Dict[str, str] = {}  # job id -> kind
    counts = {
        "arrivals": 0,
        "responses": 0,
        "ok": 0,
        "rejected": 0,
        "injected_faults": 0,
        "http_errors": 0,
        "transport_errors": 0,
        "shed_in_flight_cap": 0,
    }
    in_flight: set = set()
    max_observed_in_flight = 0

    async def one_request(kind, method, path, body) -> None:
        t0 = loop.time()
        try:
            status, document = await http_json(
                host, port, method, path, body, timeout=request_timeout
            )
        except (OSError, asyncio.TimeoutError):
            counts["transport_errors"] += 1
            return
        latencies.setdefault(kind, []).append(loop.time() - t0)
        counts["responses"] += 1
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        if status < 400:
            counts["ok"] += 1
            job = document.get("job")
            if isinstance(job, dict) and "id" in job:
                jobs_seen.setdefault(job["id"], kind)
        elif status == 429:
            counts["rejected"] += 1
        else:
            error = document.get("error")
            code = error.get("code") if isinstance(error, dict) else None
            if code == "chaos_injected":
                counts["injected_faults"] += 1
            else:
                counts["http_errors"] += 1

    healthz_samples: List[float] = []
    healthz_failures = 0
    stop_probe = asyncio.Event()

    async def probe_healthz() -> None:
        nonlocal healthz_failures
        interval = 1.0 / max(1e-3, healthz_hz)
        while not stop_probe.is_set():
            t0 = loop.time()
            try:
                await http_json(
                    host, port, "GET", "/healthz", timeout=request_timeout
                )
                healthz_samples.append(loop.time() - t0)
            except (OSError, asyncio.TimeoutError):
                healthz_failures += 1
            with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                await asyncio.wait_for(stop_probe.wait(), timeout=interval)

    probe = loop.create_task(probe_healthz())
    window_started = loop.time()
    window_end = window_started + duration
    next_arrival = window_started

    while True:
        next_arrival += rng.expovariate(rate)
        if next_arrival >= window_end:
            break
        delay = next_arrival - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        counts["arrivals"] += 1
        if len(in_flight) >= max_in_flight:
            # The harness itself sheds: an open-loop generator must not
            # accumulate unbounded local state when the server stalls.
            counts["shed_in_flight_cap"] += 1
            continue
        kind, method, path, body = build(rng, scale, seed, queries)
        if (
            deadline_s is not None
            and method == "POST"
            and body is not None
        ):
            body = dict(body, deadline_s=deadline_s)
        task = loop.create_task(one_request(kind, method, path, body))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
        max_observed_in_flight = max(max_observed_in_flight, len(in_flight))

    if in_flight:
        await asyncio.gather(*list(in_flight), return_exceptions=True)
    generation_s = loop.time() - window_started

    # Drain: wait for every submitted job to settle so goodput measures
    # completed work.
    unfinished = set(jobs_seen)
    jobs_done = 0
    jobs_failed = 0
    drained = True
    drain_end = loop.time() + drain_timeout
    while unfinished:
        if loop.time() >= drain_end:
            drained = False
            break
        for job_id in list(unfinished):
            try:
                status, document = await http_json(
                    host,
                    port,
                    "GET",
                    f"/v1/jobs/{job_id}",
                    timeout=request_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                continue
            job = document.get("job")
            if status < 400 and isinstance(job, dict):
                if job.get("status") == "done":
                    jobs_done += 1
                    unfinished.discard(job_id)
                elif job.get("status") == "failed":
                    jobs_failed += 1
                    unfinished.discard(job_id)
        if unfinished:
            await asyncio.sleep(0.25)
    stop_probe.set()
    await probe
    total_s = loop.time() - window_started

    all_samples = [s for samples in latencies.values() for s in samples]
    report: Dict[str, Any] = {
        "schema": 1,
        "profile": profile,
        "seed": seed,
        "offered_rps": rate,
        "duration_s": duration,
        "generation_wall_s": generation_s,
        "total_wall_s": total_s,
        "scale": scale,
        "deadline_s": deadline_s,
        "counts": dict(counts),
        "statuses": dict(sorted(statuses.items())),
        "max_in_flight": max_observed_in_flight,
        "rejection_rate": (
            counts["rejected"] / counts["responses"]
            if counts["responses"]
            else 0.0
        ),
        "error_rate": (
            (counts["http_errors"] + counts["transport_errors"])
            / max(1, counts["arrivals"])
        ),
        "latency": _latency_summary(all_samples),
        "latency_by_kind": {
            kind: _latency_summary(samples)
            for kind, samples in sorted(latencies.items())
        },
        "healthz": {
            **_latency_summary(healthz_samples),
            "failures": healthz_failures,
        },
        "jobs": {
            "submitted": len(jobs_seen),
            "done": jobs_done,
            "failed": jobs_failed,
            "drained": drained,
            "undrained": len(unfinished),
        },
        "goodput_jobs_per_s": jobs_done / total_s if total_s > 0 else 0.0,
    }
    return report


# ----------------------------------------------------------------------
# SLO gate
# ----------------------------------------------------------------------
def check_slos(
    report: Dict[str, Any],
    p99_ms: Optional[float] = None,
    healthz_p99_ms: Optional[float] = None,
    reject_max: Optional[float] = None,
    error_max: Optional[float] = None,
    goodput_min: Optional[float] = None,
) -> List[str]:
    """Check a report against SLO thresholds; returns violations."""
    failures: List[str] = []
    if p99_ms is not None and report["latency"]["p99_ms"] > p99_ms:
        failures.append(
            f"latency p99 {report['latency']['p99_ms']:.1f}ms "
            f"> SLO {p99_ms:g}ms"
        )
    if (
        healthz_p99_ms is not None
        and report["healthz"]["p99_ms"] > healthz_p99_ms
    ):
        failures.append(
            f"healthz p99 {report['healthz']['p99_ms']:.1f}ms "
            f"> SLO {healthz_p99_ms:g}ms"
        )
    if reject_max is not None and report["rejection_rate"] > reject_max:
        failures.append(
            f"rejection rate {report['rejection_rate']:.3f} "
            f"> SLO {reject_max:g}"
        )
    if error_max is not None and report["error_rate"] > error_max:
        failures.append(
            f"error rate {report['error_rate']:.3f} > SLO {error_max:g}"
        )
    if (
        goodput_min is not None
        and report["goodput_jobs_per_s"] < goodput_min
    ):
        failures.append(
            f"goodput {report['goodput_jobs_per_s']:.2f} jobs/s "
            f"< SLO {goodput_min:g}"
        )
    if not report["jobs"]["drained"]:
        failures.append(
            f"{report['jobs']['undrained']} submitted job(s) never "
            "reached a terminal state within the drain timeout"
        )
    return failures


def merge_report(
    report: Dict[str, Any],
    path: Path,
    section: str = "sustained_load",
) -> None:
    """Merge a load report into a bench JSON file under ``section``."""
    data: Dict[str, Any] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[section] = report
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# self-hosted mode (no external server needed)
# ----------------------------------------------------------------------
def synthetic_runner(
    compute_s: float = 0.02,
) -> Callable[..., Dict[str, Any]]:
    """A fixed-cost payload runner: real service, synthetic pipeline.

    Load runs measure the *service's* overload behavior; burning CPU on
    real scheduling would only cap the reachable request rate.
    """

    def run(
        job_data: Dict[str, Any], loop_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        time.sleep(compute_s)
        return {
            "schema": 1,
            "job": job_data,
            "status": "ok",
            "elapsed_s": compute_s,
            "evaluation": None,
        }

    return run


@contextlib.contextmanager
def self_hosted_service(
    compute_s: float = 0.02,
    workers: int = 8,
    max_interactive: Optional[int] = 256,
    max_batch: Optional[int] = 16,
    default_deadline: Optional[float] = None,
):
    """An in-process service with a synthetic runner, for load runs.

    Yields the :class:`~repro.service.http.ThreadedService` handle.
    """
    from repro.campaign.store import ResultStore
    from repro.service import AdmissionPolicy, JobManager, start_in_thread

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as root:

        def factory():
            return JobManager(
                store=ResultStore(root),
                executor=JobManager.inline_executor(max_workers=workers),
                run_payload=synthetic_runner(compute_s),
                admission=AdmissionPolicy(
                    max_interactive=max_interactive, max_batch=max_batch
                ),
                default_deadline=default_deadline,
            )

        with start_in_thread(factory) as handle:
            yield handle


#: Typing helper for callers embedding run_load.
RunLoad = Callable[..., Awaitable[Dict[str, Any]]]

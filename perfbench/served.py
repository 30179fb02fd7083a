"""The ``service_mixed`` workload: the HTTP service and one fleet worker.

Set-up starts ``repro serve --jobs 0`` (a pure coordinator) and one
``repro worker --connect ... --cache-dir ...`` on a fresh cache
directory, and waits until the worker has registered.  The timed phase
is a closed loop over one connection that interleaves two paths:

* every point of the pool is submitted once, in seeded order, each a
  new point: admission -> queue -> lease -> worker pipeline ->
  complete -> result store and warehouse write;
* after each, points already settled (drawn by the seed) are
  re-submitted: the service answers them from its own job table, so
  only HTTP, admission and dedup do work.

Every result is checked against ``expected.json``.  Layer numbers come
only from the service's public surface: ``/v1/jobs/<id>/timeline`` of
traced requests (``X-Repro-Trace``), and ``/metrics`` read before and
after.  A healthy run has no rejection, expired lease or deadline
expiry; any of them fails the run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    WORK_DIR,
    Checker,
    Point,
    benchmarks,
    counter_delta,
    latency_metrics,
    median,
    peak_rss_mb,
    service_points,
)
from perfbench.layers import SpanTable

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Idle sleep of the worker between empty lease polls.  The default
#: (1 s) would dominate the latency of a closed loop.
WORKER_POLL_S = 0.005
#: Re-submits of settled points after each new point.
RESUBMITS = 5
#: Worker-side span names and the layer span each one reports as.
WORKER_SPANS = {
    "corpus": "workloads.build_corpus",
    "profile": "pipeline.profile",
    "calibrate": "pipeline.calibrate",
    "baseline": "pipeline.baseline",
    "select": "pipeline.select",
    "schedule": "pipeline.schedule",
    "measure": "pipeline.measure",
    "schedule_loop": "scheduler.schedule",
}


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def call(
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    headers: Optional[Dict[str, str]] = None,
    raw: bool = False,
):
    """One request on a new connection; returns ``(status, document)``.

    Not ``ServiceClient``: it retries 429/5xx answers, which would hide
    the refusals this benchmark counts, and cannot set ``X-Repro-Trace``.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        data = response.read().decode()
        return response.status, data if raw else json.loads(data or "{}")
    finally:
        connection.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, in MiB (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Service:
    """``repro serve --jobs 0`` plus one ``repro worker``, fresh cache dir."""

    def __init__(self, work_dir: Path) -> None:
        self.cache_dir = work_dir / "cache"
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self._logs = []
        self.processes: List[subprocess.Popen] = []
        self._start(
            work_dir / "serve.log",
            "serve", "--port", str(self.port), "--cache-dir", str(self.cache_dir),
            "--jobs", "0", "--no-ingest",
            env=env,
        )
        self._wait(lambda: call(self.port, "GET", "/healthz")[0] == 200)
        self._start(
            work_dir / "worker.log",
            "worker", "--connect", f"127.0.0.1:{self.port}", "--id", "perfbench",
            "--cache-dir", str(self.cache_dir), "--poll", str(WORKER_POLL_S),
            env=env,
        )
        self._wait(self._worker_registered)

    def _start(self, log: Path, *args: str, env) -> None:
        handle = open(log, "w")
        self._logs.append((log, handle))
        self.processes.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=env,
                cwd=ROOT,
                stdout=handle,
                stderr=subprocess.STDOUT,
            )
        )

    def _worker_registered(self) -> bool:
        workers = call(self.port, "GET", "/stats")[1]["fleet"]["workers"]
        return any(worker["id"] == "perfbench" for worker in workers)

    def _wait(self, ready, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(process.poll() is not None for process in self.processes):
                break
            try:
                if ready():
                    return
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"service did not start:\n{self.log_tail()}")

    def log_tail(self) -> str:
        return "\n".join(
            f"--- {log.name}\n" + log.read_text()[-2000:] for log, _ in self._logs
        )

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(process.pid) for process in self.processes)

    def stop(self) -> None:
        """SIGTERM the worker, then the server; wait for both to exit."""
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        for _log, handle in self._logs:
            handle.close()


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Loop:
    """One closed-loop connection and its measurements.

    After each new point settles, :data:`RESUBMITS` points already
    settled (drawn by the seed) are re-submitted.  One connection keeps
    the two paths apart: a re-submit never shares the 2-core host with
    a computation, so neither path's latency depends on the other's.
    """

    def __init__(self, port: int, checker: Checker, rng: random.Random) -> None:
        self.port = port
        self.checker = checker
        self.rng = rng
        self.settled: List[Point] = []
        self.compute_s: List[float] = []
        self.hit_s: List[float] = []
        self.submit_s: List[float] = []
        self.result_s: List[float] = []
        self.computed_jobs: List[str] = []
        self.trace_prefix: Optional[str] = None
        self._traces = 0

    def _headers(self) -> Dict[str, str]:
        if self.trace_prefix is None:
            return {}
        self._traces += 1
        return {"X-Repro-Trace": f"{self.trace_prefix}{self._traces:08x}"}

    def request(self, point: Point) -> Optional[Tuple[float, str]]:
        """Submit ``point`` and fetch its result; ``(latency, job id)``."""
        body = {
            "benchmark": point.benchmark,
            "scale": point.scale,
            "options": point.options().to_dict(),
        }
        started = time.perf_counter()
        status, document = call(
            self.port, "POST", "/v1/evaluate", body, self._headers()
        )
        submitted = time.perf_counter()
        if status not in (200, 202):
            self.checker.fail(f"{point.id}: submit answered {status}: {document}")
            return None
        job = document["job"]
        while job["status"] not in ("done", "failed"):
            status, document = call(
                self.port, "GET", f"/v1/jobs/{job['id']}?wait=1&timeout=30"
            )
            if status == 200:
                job = document["job"]
            elif status != 504:  # 504: still running, poll again
                self.checker.fail(f"{point.id}: wait answered {status}")
                return None
        fetched = time.perf_counter()
        status, document = call(self.port, "GET", f"/v1/jobs/{job['id']}/result")
        finished = time.perf_counter()
        result = document.get("result") if status == 200 else None
        if not result:
            self.checker.fail(f"{point.id}: job {job['status']}: {job.get('error')}")
            return None
        self.submit_s.append(submitted - started)
        self.result_s.append(finished - fetched)
        if not self.checker.check(point, result["evaluation"]):
            return None
        return finished - started, job["id"]

    def run(self, points: List[Point]) -> float:
        """Submit every point once, interleaving re-submits; wall time."""
        started = time.perf_counter()
        for point in points:
            outcome = self.request(point)
            if outcome is not None:
                self.compute_s.append(outcome[0])
                self.computed_jobs.append(outcome[1])
                self.settled.append(point)
            for _ in range(RESUBMITS if self.settled else 0):
                outcome = self.request(self.rng.choice(self.settled))
                if outcome is not None:
                    self.hit_s.append(outcome[0])
        return time.perf_counter() - started


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def service_mixed(seed: int, seconds: float, trace: bool, quick: bool):
    """New points and re-submits over HTTP.

    ``seconds`` is not used: the timed phase is the fixed pool of new
    points (15-25 s of compute on a 2-vCPU x86-64 VM), so every run does
    the same work.
    """
    del seconds
    rng = random.Random(seed)
    checker = Checker()
    pool = service_points(benchmarks(quick))
    rng.shuffle(pool)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    try:
        if trace:
            values = _traced(checker, rng, pool, seed, run_dir)
        else:
            values = _untraced(checker, rng, pool, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return checker, values


def _start(run_dir: Path, name: str) -> Tuple[Service, float]:
    path = run_dir / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    started = time.perf_counter()
    return Service(path), time.perf_counter() - started


def _measure(service: Service, loop: Loop, pool: List[Point]):
    """Run the closed loop; returns (wall, /metrics before, after)."""
    before = call(service.port, "GET", "/metrics", raw=True)[1]
    wall = loop.run(pool)
    after = call(service.port, "GET", "/metrics", raw=True)[1]
    for family, having in (
        ("repro_service_rejected_total", ()),
        ("repro_service_deadline_exceeded_total", ()),
        ("repro_fleet_leases_total", ('event="expired"',)),
    ):
        count = counter_delta(before, after, family, having)
        if count:
            loop.checker.fail(
                f"unhealthy run: {family}{list(having)} rose by {count:g}"
            )
    return wall, before, after


def _untraced(checker, rng, pool, run_dir: Path) -> Dict[str, float]:
    setup_times = []
    service = None
    try:
        for attempt in range(SETUP_REPEATS):
            if service is not None:
                service.stop()
            service, elapsed = _start(run_dir, f"setup-{attempt}")
            setup_times.append(elapsed)
        loop = Loop(service.port, checker, rng)
        wall, _before, _after = _measure(service, loop, pool)
        rss = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()
    print(
        f"re-submits: {len(loop.hit_s)}, p50 {median(loop.hit_s) * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return {
        "setup_s": median(setup_times),
        "evals_per_s": len(loop.compute_s) / wall,
        **latency_metrics(loop.compute_s, "new points"),
        "hit_p50_ms": median(loop.hit_s) * 1e3,
        **checker.quality(),
        "peak_rss_mb": peak_rss_mb() + rss,
    }


def _traced(checker, rng, pool, seed: int, run_dir: Path) -> Dict[str, float]:
    """The pool untraced on one service, then traced on a fresh one.

    Both halves compute the same points, so the ratio of their median
    latencies is the cost of tracing.  Layer numbers come from the
    traced half's timelines and its ``/metrics`` delta.
    """
    service, _elapsed = _start(run_dir, "untraced")
    try:
        untraced = Loop(service.port, checker, rng)
        _measure(service, untraced, pool)
    finally:
        service.stop()
    service, _elapsed = _start(run_dir, "traced")
    try:
        loop = Loop(service.port, checker, rng)
        loop.trace_prefix = f"{seed & 0xFFFFFFFF:08x}"
        _wall, before, after = _measure(service, loop, pool)
        values = _timeline_layers(loop)
    finally:
        service.stop()
    values.update(_fleet_counters(before, after))
    values.update(_cache_counters(service.cache_dir))
    values["telemetry.trace_overhead_ratio"] = median(loop.compute_s) / median(
        untraced.compute_s
    )
    return values


def _timeline_layers(loop: Loop) -> Dict[str, float]:
    """Layer spans of every computed job, from ``/v1/jobs/<id>/timeline``."""
    from repro.reporting import timeline_attribution

    spans = SpanTable()
    lifecycle: Dict[str, List[float]] = {}
    attributed = []
    candidates = retries = 0
    for job_id in loop.computed_jobs:
        status, timeline = call(loop.port, "GET", f"/v1/jobs/{job_id}/timeline")
        if status != 200:
            loop.checker.fail(f"job {job_id}: timeline answered {status}")
            continue
        tree = timeline["tree"]
        attributed.append(timeline_attribution(tree))
        for node in _walk(tree):
            lifecycle.setdefault(node["name"], []).append(node["elapsed_s"])
            if node["name"] == "job":
                found = _worker_spans(node, spans)
                candidates += found[0]
                retries += found[1]
    values = spans.metrics()
    loops = values["scheduler.loops"]
    values.update(
        {
            "service.submit_ms": median(loop.submit_s) * 1e3,
            "service.result_ms": median(loop.result_s) * 1e3,
            "service.admission_ms": _median_ms(lifecycle.get("admission")),
            "fleet.queue_wait_ms": _median_ms(lifecycle.get("queue_wait")),
            "fleet.lease_ms": _median_ms(lifecycle.get("lease")),
            "warehouse.record_ms": _median_ms(lifecycle.get("warehouse_record")),
            "campaign.job_s": sum(lifecycle.get("job", [])),
            "campaign.job_calls": len(lifecycle.get("job", [])),
            "scheduler.it_candidates": candidates,
            "scheduler.it_retries": retries,
            "scheduler.first_it_ratio": loops / candidates if candidates else 0.0,
            "telemetry.attributed_ratio": median(attributed) if attributed else 0.0,
        }
    )
    return values


def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _worker_spans(job: dict, spans: SpanTable) -> Tuple[int, int]:
    """Feed a worker's ``job`` span tree into ``spans``; IT-search counts."""
    candidates = retries = 0

    def visit(node: dict) -> float:
        """Adds mapped spans; returns the mapped time at or below ``node``."""
        nonlocal candidates, retries
        below = sum(visit(child) for child in node.get("children", ()))
        name = WORKER_SPANS.get(node["name"])
        if name is None:
            return below
        if node["name"] == "schedule_loop":
            counts = node.get("counters") or {}
            candidates += counts.get("it_candidates", 0)
            retries += counts.get("it_retries", 0)
        spans.add(name, node["elapsed_s"], node["elapsed_s"] - below)
        return node["elapsed_s"]

    visit(job)
    return candidates, retries


def _median_ms(values: Optional[List[float]]) -> float:
    return median(values) * 1e3 if values else 0.0


def _fleet_counters(before: str, after: str) -> Dict[str, float]:
    out = {}
    for level in ("job", "inflight", "store"):
        out[f"service.dedup_hits.{level}"] = counter_delta(
            before, after, "repro_service_dedup_hits_total", (f'level="{level}"',)
        )
    for event in ("granted", "expired", "requeued"):
        out[f"fleet.leases_{event}"] = counter_delta(
            before, after, "repro_fleet_leases_total", (f'event="{event}"',)
        )
    return out


def _cache_counters(cache_dir: Path) -> Dict[str, float]:
    """Loop- and stage-cache counters of every job, from the warehouse."""
    from repro.campaign import ResultStore
    from repro.warehouse import Warehouse

    warehouse = Warehouse.for_store(ResultStore(cache_dir))
    try:
        totals = {counter: total for counter, total, _jobs in warehouse.cache_rows()}
    finally:
        warehouse.close()
    out = {
        f"pipeline.cache.loop_{name}": totals.get(f"loop_{name}", 0)
        for name in ("hits", "misses", "disk_hits", "corrupt")
    }
    lookups = sum(out[f"pipeline.cache.loop_{name}"] for name in ("hits", "misses", "disk_hits"))
    out["pipeline.cache.loop_hit_ratio"] = (
        (out["pipeline.cache.loop_hits"] + out["pipeline.cache.loop_disk_hits"]) / lookups
        if lookups
        else 0.0
    )
    out["pipeline.cache.stage_hits"] = totals.get("hits", 0) + totals.get("disk_hits", 0)
    out["pipeline.cache.stage_misses"] = totals.get("misses", 0)
    return out

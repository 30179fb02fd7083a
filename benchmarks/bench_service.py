"""Service bench: request throughput, latency and dedup hit rate.

Starts the evaluation service in-process (thread runner, real
pipeline), then measures the two regimes that matter for an online
service:

* **cold** — one genuinely computed evaluate request (the pipeline
  cost an uncached request pays),
* **hot** — a burst of concurrent identical requests against the same
  key: all dedup onto one computation/cache entry, so the measured
  numbers are the service's own request overhead (HTTP parse, dedup
  lookup, JSON response).

A third regime — **sustained** — drives the self-hosted service with
the :mod:`repro.loadgen` open-loop Poisson harness (mixed traffic,
synthetic runner) and records latency percentiles, goodput and
rejection rate under continuous load.

Writes ``BENCH_service.json`` at the repo root (next to
``BENCH_pipeline.json``) plus the usual ``benchmarks/results/`` twin.
"""

import asyncio
import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.campaign import ResultStore
from repro.campaign.executor import execute_job_payload
from repro.loadgen import run_load, self_hosted_service
from repro.reporting import render_table
from repro.service import JobManager, ServiceClient, start_in_thread
from repro.telemetry import HistogramData
from repro.warehouse import Warehouse

from common import corpus_scale, publish

#: Concurrent identical requests of the hot burst (the acceptance bar
#: for dedup is 64; measure a little beyond it).
BURST = 96

#: The sustained-load window: offered rate (req/s) and duration.
LOAD_RPS = 150.0
LOAD_DURATION_S = 8.0


def _bench_sustained() -> dict:
    """The loadgen window against a self-hosted synthetic service."""
    with self_hosted_service(compute_s=0.01, workers=8) as handle:
        report = asyncio.run(
            run_load(
                handle.host,
                handle.port,
                rate=LOAD_RPS,
                duration=LOAD_DURATION_S,
                profile="mixed",
                seed=0,
                drain_timeout=120.0,
            )
        )
    return report


def _bench(client: ServiceClient) -> dict:
    scale = min(corpus_scale(), 0.05)
    request = dict(benchmark="171.swim", scale=scale)

    started = time.perf_counter()
    job = client.submit_evaluate(**request)
    client.wait(job["id"], timeout=600)
    cold_s = time.perf_counter() - started

    samples = []

    def one_request(_index: int) -> str:
        t0 = time.perf_counter()
        submitted = client.submit_evaluate(**request)
        samples.append(time.perf_counter() - t0)  # list.append is atomic
        return submitted["id"]

    burst_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=32) as pool:
        ids = list(pool.map(one_request, range(BURST)))
    burst_s = time.perf_counter() - burst_started
    assert len(set(ids)) == 1, "identical requests must map to one job"

    # Telemetry's merge-exact histogram: the recorded buckets let later
    # tooling re-aggregate across bench runs without raw samples.
    latencies = HistogramData()
    for sample in samples:
        latencies.observe(sample)

    stats = client.stats()["jobs"]
    submitted = stats["submitted"]
    deduped = stats["deduped"]
    return {
        "scale": scale,
        "cold_request_s": cold_s,
        "burst_requests": BURST,
        "burst_wall_s": burst_s,
        "burst_throughput_rps": BURST / burst_s,
        "latency_mean_ms": 1e3 * latencies.mean,
        "latency_p50_ms": 1e3 * latencies.percentile(0.50),
        "latency_p95_ms": 1e3 * latencies.percentile(0.95),
        "latency_p99_ms": 1e3 * latencies.percentile(0.99),
        "latency_histogram": latencies.to_dict(),
        "submitted": submitted,
        "deduped": deduped,
        "computed": stats["computed"],
        "dedup_hit_rate": deduped / submitted,
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as root:

        def factory():
            store = ResultStore(root)
            return JobManager(
                store=store,
                warehouse=Warehouse.for_store(store),
                run_payload=execute_job_payload,
                max_workers=2,
            )

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=120
            )
            data = _bench(client)

    data["sustained_load"] = sustained = _bench_sustained()

    text = render_table(
        ["metric", "value"],
        [
            ("corpus scale", f"{data['scale']:g}"),
            ("cold evaluate (compute)", f"{data['cold_request_s']:.2f}s"),
            (
                "hot burst",
                f"{data['burst_requests']} identical requests in "
                f"{data['burst_wall_s']:.2f}s",
            ),
            ("throughput", f"{data['burst_throughput_rps']:.0f} req/s"),
            ("latency mean", f"{data['latency_mean_ms']:.1f} ms"),
            ("latency p50", f"{data['latency_p50_ms']:.1f} ms"),
            ("latency p95", f"{data['latency_p95_ms']:.1f} ms"),
            ("latency p99", f"{data['latency_p99_ms']:.1f} ms"),
            (
                "dedup",
                f"{data['deduped']}/{data['submitted']} requests "
                f"({data['dedup_hit_rate']:.0%}), "
                f"{data['computed']} computation(s)",
            ),
            (
                "sustained load",
                f"{sustained['counts']['arrivals']} arrivals @ "
                f"{LOAD_RPS:g} req/s for {LOAD_DURATION_S:g}s (mixed)",
            ),
            (
                "sustained p50/p99",
                f"{sustained['latency']['p50_ms']:.1f} / "
                f"{sustained['latency']['p99_ms']:.1f} ms",
            ),
            (
                "sustained healthz p99",
                f"{sustained['healthz']['p99_ms']:.1f} ms",
            ),
            (
                "sustained goodput",
                f"{sustained['goodput_jobs_per_s']:.2f} jobs/s done, "
                f"{sustained['rejection_rate']:.1%} rejected",
            ),
        ],
        title="Evaluation service: request throughput / latency / dedup",
    )
    publish("BENCH_service", text, data=data)
    root_report = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    root_report.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {root_report}")


if __name__ == "__main__":
    main()

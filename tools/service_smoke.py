#!/usr/bin/env python3
"""CI smoke test of the evaluation service, end to end over real pipes.

Starts ``python -m repro serve --jobs 2 --runner RUNNER`` as a
subprocess, submits a scale-0.05 evaluate over HTTP, polls it to
completion, checks the dedup counters, submits an evaluate and an
overlapping campaign at once and checks their shared point computed
once, scrapes ``/metrics`` and asserts the dedup (job and in-flight),
latency (and, in-process, loop-cache) series are live, fetches
``GET /v1/query/best`` (and checks an unknown selector answers 404),
shuts the server down, and finally asks ``python -m repro query best``
for the warehouse's view of the freshly computed job, which must equal
the live answer — exercising exactly the path an operator would: server
process, HTTP client, Prometheus scrape, SQLite index.

Usage: ``python tools/service_smoke.py [--runner process|inline]``
(default ``inline``; CI runs both).

Exits non-zero (with the server log on stderr) on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_common import free_port, metric_total, wait_healthy

ROOT = Path(__file__).resolve().parent.parent


def metric_sample(text: str, series: str) -> float:
    """The value of one labelled series (``name{label="value"}``), or 0."""
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def check_metrics(scrape: str, runner: str) -> None:
    """Assert the requests left live dedup, latency and cache series."""
    dedup = metric_total(scrape, "repro_service_dedup_hits_total")
    if dedup < 1:
        raise RuntimeError(f"/metrics dedup hits not recorded: {dedup}")
    inflight = metric_sample(
        scrape, 'repro_service_dedup_hits_total{level="inflight"}'
    )
    if inflight < 1:
        raise RuntimeError(f"/metrics in-flight dedup not recorded: {inflight}")
    requests = metric_total(scrape, "repro_service_request_seconds_count")
    if requests < 1:
        raise RuntimeError(
            f"/metrics request latency histogram empty: {requests}"
        )
    print(
        f"metrics ok: dedup={dedup:g} inflight={inflight:g} "
        f"requests={requests:g}"
    )
    if runner != "inline":
        # The process runner computes in child processes, whose loop
        # cache counters never reach the server's registry.
        return
    # The inline runner computes in-process, so the pipeline's loop
    # cache counters must also surface in the same scrape.
    cache_events = metric_total(scrape, "repro_stage_cache_events_total")
    if cache_events < 1:
        raise RuntimeError(
            f"/metrics loop-cache series missing: {cache_events}"
        )
    print(f"loop-cache metrics ok: cache_events={cache_events:g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runner", choices=("process", "inline"), default="inline"
    )
    runner = parser.parse_args().runner
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}" + env.get("PYTHONPATH", "")
    port = free_port()
    with tempfile.TemporaryDirectory() as cache_dir:
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--cache-dir",
                cache_dir,
                "--runner",
                runner,
                "--jobs",
                "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            sys.path.insert(0, str(ROOT / "src"))
            from repro.service import ServiceClient

            client = ServiceClient(port=port, timeout=30)
            wait_healthy(client, server)

            job = client.submit_evaluate(benchmark="171.swim", scale=0.05)
            print(f"submitted job {job['id']} ({job['status']})")
            finished = client.wait(job["id"], timeout=600)
            if finished["status"] != "done":
                raise RuntimeError(f"job failed: {finished.get('error')}")
            summary = client.result(job["id"])["result"]["summary"]
            print(f"completed: {json.dumps(summary, sort_keys=True)}")

            duplicate = client.submit_evaluate(
                benchmark="171.swim", scale=0.05
            )
            if duplicate["id"] != job["id"]:
                raise RuntimeError("identical request mapped to a new job")
            stats = client.stats()["jobs"]
            if stats["computed"] != 1 or stats["deduped"] < 1:
                raise RuntimeError(f"unexpected dedup counters: {stats}")
            print(f"dedup ok: {stats}")

            # An evaluate and a campaign sharing one of its two points,
            # submitted at once: the campaign joins the evaluate's queued
            # point, so three requested points compute only twice.
            evaluate = client.submit_evaluate(benchmark="172.mgrid", scale=0.02)
            campaign = client.submit_campaign(
                benchmarks=["172.mgrid"], scale=0.02, buses_grid=[1, 2]
            )
            for submitted in (evaluate, campaign):
                finished = client.wait(submitted["id"], timeout=600)
                if finished["status"] != "done":
                    raise RuntimeError(
                        f"{submitted['id']} failed: {finished.get('error')}"
                    )
            overlap = client.stats()["jobs"]
            if overlap["computed"] - stats["computed"] != 2:
                raise RuntimeError(f"shared point computed twice: {overlap}")
            print(f"in-flight dedup ok: {overlap}")

            check_metrics(client.metrics(), runner)
            live_best = client.query("best")
            status, missing = client.request(
                "GET", "/v1/query/best", query={"selector": "nosuch"}
            )
            if status != 404:
                raise RuntimeError(
                    f"unknown selector answered {status}, not 404: {missing}"
                )
            print("unknown selector ok: 404")
        except Exception:
            server.terminate()
            output, _ = server.communicate(timeout=30)
            print("--- server log ---\n" + (output or ""), file=sys.stderr)
            raise
        else:
            server.terminate()
            server.communicate(timeout=30)

        query = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                "best",
                "--cache-dir",
                cache_dir,
                "--output",
                "json",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if query.returncode != 0:
            print(query.stderr, file=sys.stderr)
            raise RuntimeError("repro query best failed")
        offline_best = json.loads(query.stdout)
        if offline_best != live_best:
            raise RuntimeError(
                "GET /v1/query/best and `repro query best` disagree: "
                f"{live_best} != {offline_best}"
            )
        best = offline_best["best"]
        if not any(row["benchmark"] == "171.swim" for row in best):
            raise RuntimeError(f"warehouse missing the computed job: {best}")
        print("warehouse query ok:")
        print(query.stdout)
    print(f"service smoke test passed (runner {runner})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

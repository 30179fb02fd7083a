#!/usr/bin/env python3
"""CI smoke test of the evaluation service, end to end over real pipes.

Starts ``python -m repro serve --jobs 2 --runner RUNNER`` as a
subprocess, submits a scale-0.05 evaluate over HTTP, polls it to
completion, checks the dedup counters, scrapes ``/metrics`` and asserts
the dedup/latency (and, in-process, loop-cache) series are live, shuts
the server down, and finally asks ``python -m repro query`` for the
warehouse's view of the freshly computed job — exercising exactly the
path an operator would: server process, HTTP client, Prometheus scrape,
SQLite index.

Usage: ``python tools/service_smoke.py [--runner process|inline]``
(default ``inline``; CI runs both).

Exits non-zero (with the server log on stderr) on any failure.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def metric_total(text: str, name: str) -> float:
    """Sum of every sample of one metric family in a Prometheus scrape."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue  # a different family sharing the prefix
        total += float(line.rsplit(" ", 1)[1])
    return total


def check_metrics(scrape: str, runner: str) -> None:
    """Assert the requests left live dedup, latency and cache series."""
    dedup = metric_total(scrape, "repro_service_dedup_hits_total")
    if dedup < 1:
        raise RuntimeError(f"/metrics dedup hits not recorded: {dedup}")
    requests = metric_total(scrape, "repro_service_request_seconds_count")
    if requests < 1:
        raise RuntimeError(
            f"/metrics request latency histogram empty: {requests}"
        )
    print(f"metrics ok: dedup={dedup:g} requests={requests:g}")
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
            for _attempt in range(50):
                if server.poll() is not None:
                    raise RuntimeError("server exited before accepting")
                try:
                    client.health()
                    break
                except OSError:
                    time.sleep(0.2)
            else:
                raise RuntimeError("server never became healthy")

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

            check_metrics(client.metrics(), runner)
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
        best = json.loads(query.stdout)["best"]
        if not any(row["benchmark"] == "171.swim" for row in best):
            raise RuntimeError(f"warehouse missing the computed job: {best}")
        print("warehouse query ok:")
        print(query.stdout)
    print(f"service smoke test passed (runner {runner})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

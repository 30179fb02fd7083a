"""Fleet bench: scale-out throughput and lease-expiry recovery.

Starts the service with no local execution (``max_workers=0``) and
real ``python -m repro worker`` subprocesses in ``--bench-sleep`` mode:
each leased job costs a fixed sleep instead of a pipeline run, so the
measured quantity is the fleet itself — lease/complete round trips,
queue scheduling, result write-through — under jobs whose compute
fully overlaps across worker processes (the bench stays meaningful on
a single-core CI host, where concurrent *pipeline* runs would contend
for the CPU).

Two experiments:

* **scaling** — the same fixed-cost batch against 1, 2 and 4 workers;
  near-linear speedup means the protocol adds negligible serial
  overhead per job.
* **kill recovery** — two workers, one SIGKILLed while holding a
  lease; the batch must still complete every job exactly once, through
  lease expiry -> requeue -> steal.

Writes ``BENCH_fleet.json`` at the repo root plus the usual
``benchmarks/results/`` twin.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import ResultStore
from repro.reporting import render_table
from repro.service import JobManager, ServiceClient, start_in_thread
from repro.warehouse import Warehouse

from common import publish

ROOT = Path(__file__).resolve().parent.parent

#: The scaling batch: enough jobs that queue effects average out, short
#: enough that the 1-worker leg stays CI-friendly.
N_JOBS = 20
JOB_SLEEP_S = 0.4

#: The kill-recovery batch and its (deliberately short) lease TTL.
KILL_JOBS = 12
KILL_SLEEP_S = 0.5
KILL_TTL_S = 2.0


def start_worker(port, worker_id, sleep_s, ttl=60.0):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--id",
            worker_id,
            "--bench-sleep",
            str(sleep_s),
            "--ttl",
            str(ttl),
            "--poll",
            "0.05",
        ],
        cwd=ROOT,
        env=dict(
            os.environ,
            PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}"
            + os.environ.get("PYTHONPATH", ""),
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def campaign_spec(n_jobs):
    """A spec expanding to exactly ``n_jobs`` distinct points."""
    return {
        "benchmarks": ["171.swim"],
        "scale": 0.01,
        "buses_grid": list(range(1, n_jobs + 1)),
    }


def wait_for_workers(client, n_workers, timeout=120.0):
    """Block until ``n_workers`` have registered (first lease poll).

    Worker subprocesses pay a Python-interpreter start-up that has
    nothing to do with the fleet protocol — and on a small CI host,
    several interpreters importing at once contend for the CPU.  The
    scaling measurement starts once the fleet is actually assembled.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(client.stats()["fleet"]["workers"]) >= n_workers:
            return
        time.sleep(0.05)
    raise RuntimeError(f"fleet never reached {n_workers} workers")


def run_batch(client, n_jobs, timeout=600.0):
    """Submit an n-point campaign; return (wall seconds, result points)."""
    started = time.perf_counter()
    job = client.submit_campaign(spec=campaign_spec(n_jobs))
    finished = client.wait(job["id"], timeout=timeout)
    elapsed = time.perf_counter() - started
    if finished["status"] != "done":
        raise RuntimeError(f"batch failed: {finished.get('error')}")
    points = client.result(job["id"])["result"]["points"]
    return elapsed, points


def fleet_service(root, lease_ttl=60.0):
    def factory():
        store = ResultStore(root)
        return JobManager(
            store=store,
            warehouse=Warehouse.for_store(store),
            max_workers=0,
            lease_ttl=lease_ttl,
        )

    return start_in_thread(factory)


def bench_scaling():
    """Wall time of the same batch at 1, 2 and 4 workers."""
    runs = []
    for n_workers in (1, 2, 4):
        with tempfile.TemporaryDirectory() as root:
            handle = fleet_service(root)
            workers = []
            try:
                client = ServiceClient(
                    host=handle.host, port=handle.port, timeout=120
                )
                workers = [
                    start_worker(handle.port, f"bench-w{i}", JOB_SLEEP_S)
                    for i in range(n_workers)
                ]
                wait_for_workers(client, n_workers)
                elapsed, points = run_batch(client, N_JOBS)
                assert len(points) == N_JOBS
                assert all(p["status"] == "ok" for p in points)
            finally:
                for process in workers:
                    process.terminate()
                for process in workers:
                    process.wait(timeout=30)
                handle.stop()
        runs.append(
            {
                "workers": n_workers,
                "jobs": N_JOBS,
                "job_cost_s": JOB_SLEEP_S,
                "wall_s": elapsed,
                "throughput_jobs_per_s": N_JOBS / elapsed,
            }
        )
        print(
            f"  {n_workers} worker(s): {elapsed:.2f}s "
            f"({N_JOBS / elapsed:.1f} jobs/s)"
        )
    base = runs[0]["wall_s"]
    for run in runs:
        run["speedup_vs_1"] = base / run["wall_s"]
    return runs


def bench_kill_recovery():
    """SIGKILL a lease-holding worker mid-batch; nothing may be lost."""
    with tempfile.TemporaryDirectory() as root:
        handle = fleet_service(root, lease_ttl=KILL_TTL_S)
        workers = {}
        try:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=120
            )
            workers = {
                wid: start_worker(
                    handle.port, wid, KILL_SLEEP_S, ttl=KILL_TTL_S
                )
                for wid in ("kill-w0", "kill-w1")
            }
            started = time.perf_counter()
            job = client.submit_campaign(spec=campaign_spec(KILL_JOBS))

            victim = None
            deadline = time.monotonic() + 60
            while victim is None and time.monotonic() < deadline:
                for info in client.stats()["fleet"]["workers"]:
                    if info["active"] > 0 and info["id"] in workers:
                        victim = info["id"]
                        break
                time.sleep(0.05)
            if victim is None:
                raise RuntimeError("no worker ever held a lease")
            workers[victim].send_signal(signal.SIGKILL)
            workers[victim].wait(timeout=30)

            finished = client.wait(job["id"], timeout=600)
            elapsed = time.perf_counter() - started
            if finished["status"] != "done":
                raise RuntimeError(f"batch failed: {finished.get('error')}")
            points = client.result(job["id"])["result"]["points"]
            keys = [point["key"] for point in points]
            missing = KILL_JOBS - len(keys)
            duplicates = len(keys) - len(set(keys))
            failed = sum(1 for p in points if p["status"] != "ok")
            store_entries = len(ResultStore(root))
            counters = client.stats()["fleet"]["leases"]
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.terminate()
            for process in workers.values():
                process.wait(timeout=30)
            handle.stop()
    if missing or duplicates or failed:
        raise RuntimeError(
            f"kill recovery lost work: missing={missing} "
            f"duplicates={duplicates} failed={failed}"
        )
    if counters.get("expired", 0) < 1:
        raise RuntimeError(
            f"the killed worker's lease never expired: {counters}"
        )
    print(
        f"  killed {victim} mid-batch: {KILL_JOBS} jobs all completed in "
        f"{elapsed:.2f}s ({counters.get('expired')} lease expiry, "
        f"{counters.get('granted')} grants)"
    )
    return {
        "jobs": KILL_JOBS,
        "job_cost_s": KILL_SLEEP_S,
        "lease_ttl_s": KILL_TTL_S,
        "wall_s": elapsed,
        "missing": missing,
        "duplicates": duplicates,
        "failed": failed,
        "store_entries": store_entries,
        "lease_counters": counters,
    }


def main() -> None:
    print("fleet scaling (fixed-cost jobs, real worker subprocesses):")
    scaling = bench_scaling()
    print("kill recovery:")
    recovery = bench_kill_recovery()

    data = {
        "meta": {
            "mode": "bench-sleep",
            "note": (
                "fixed-cost synthetic jobs (worker --bench-sleep): "
                "measures fleet protocol/queue scaling with compute "
                "fully overlapped, independent of host core count"
            ),
        },
        "scaling": scaling,
        "kill_recovery": recovery,
    }

    rows = [
        (
            f"{run['workers']} worker(s)",
            f"{run['wall_s']:.2f}s",
            f"{run['throughput_jobs_per_s']:.1f} jobs/s",
            f"{run['speedup_vs_1']:.2f}x",
        )
        for run in scaling
    ]
    rows.append(
        (
            "kill recovery",
            f"{recovery['wall_s']:.2f}s",
            f"{recovery['jobs']} jobs, 1 worker SIGKILLed",
            f"{recovery['missing']} lost / {recovery['duplicates']} dup",
        )
    )
    text = render_table(
        ["run", "wall", "throughput", "scaling"],
        rows,
        title=(
            f"Worker fleet: {N_JOBS} x {JOB_SLEEP_S}s jobs, "
            "1 -> 2 -> 4 workers"
        ),
    )
    publish("BENCH_fleet", text, data=data)
    root_report = ROOT / "BENCH_fleet.json"
    root_report.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {root_report}")

    two, four = scaling[1]["speedup_vs_1"], scaling[2]["speedup_vs_1"]
    if two < 1.8 or four < 3.2:
        raise SystemExit(
            f"fleet scaling below the bar: 2 workers {two:.2f}x (need "
            f">= 1.8), 4 workers {four:.2f}x (need >= 3.2)"
        )


if __name__ == "__main__":
    main()

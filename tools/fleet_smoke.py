#!/usr/bin/env python3
"""CI smoke test of the worker fleet, end to end over real processes.

Starts ``python -m repro serve --jobs 0`` (no local execution) and two
``python -m repro worker`` subprocesses, submits a small campaign over
HTTP, SIGKILLs one worker while it holds a lease, and asserts that the
campaign still completes with every point present exactly once — the
lease-expiry work-stealing path exercised with real pipes, real
processes and a real ``kill -9``.  Finishes by checking the fleet
series in ``/metrics`` (granted/completed counters, the expired lease
from the kill) and the worker registry in ``/stats``.

Every job the service runs carries a distributed trace; after the
campaign settles, the smoke test additionally asserts one complete
trace — per-point lease attempts tagged with worker ids (including the
expired attempt of the killed worker), worker-side pipeline spans
re-parented under the completing attempts — and that the flight
recorder correlates the lease story by trace id.

Then it kills the coordinator: a second campaign (the first one's 8
points plus 8 new ones) starts on the surviving worker, ``serve`` is
SIGKILLed once at least one new point has settled, the warehouse
database is deleted, and a fresh ``serve --jobs 2`` on the same cache
directory takes the resubmitted campaign on its own local worker slots.
Every point must come back exactly once with no failures; every point
settled before the kill must be answered from the result store
(``repro_service_dedup_hits_total{level="store"}``) and none recomputed
— the crash-only guarantee of content-addressed keys plus store
write-through.  The rebuilt index must still list both campaigns with
every point and answer ``repro query timeline`` for the first
campaign's job, killed worker's expired attempt included: labels and
traces live in the store, the warehouse only indexes them.

Exits non-zero (with the server log and the flight recorder's event
ring on stderr) on any failure.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Short TTL so the killed worker's lease expires within the smoke
#: test's patience; long enough that healthy scale-0.05 jobs renew.
LEASE_TTL = 3.0


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


def check_distributed_trace(client, job, total):
    """One settled job must yield one complete distributed trace."""
    from repro.reporting import timeline_attribution

    timeline = client.timeline(job["id"])
    trace_id = timeline["trace"]
    if trace_id != job.get("trace"):
        raise RuntimeError(
            f"timeline trace {trace_id!r} != submitted {job.get('trace')!r}"
        )
    tree = timeline["tree"]
    if tree["name"] != "submit":
        raise RuntimeError(f"trace root is {tree['name']!r}, not 'submit'")
    experiments = [
        child for child in tree.get("children", ())
        if child["name"] == "experiment"
    ]
    if len(experiments) != total:
        raise RuntimeError(
            f"expected {total} experiment spans, got {len(experiments)}"
        )
    expired = 0
    reparented = 0
    for experiment in experiments:
        leases = [
            child for child in experiment.get("children", ())
            if child["name"] == "lease"
        ]
        outcomes = [span["attributes"].get("outcome") for span in leases]
        if "completed" not in outcomes:
            raise RuntimeError(
                f"a point settled without a completed lease: {outcomes}"
            )
        for span in leases:
            if not span["attributes"].get("worker"):
                raise RuntimeError(f"lease span without a worker id: {span}")
            if span["attributes"].get("outcome") == "expired":
                expired += 1
            if span["attributes"].get("outcome") == "completed" and span.get(
                "children"
            ):
                reparented += 1
    if expired < 1:
        raise RuntimeError(
            "the killed worker's expired lease attempt is missing from "
            "the trace"
        )
    if reparented < 1:
        raise RuntimeError(
            "no completed lease attempt carries a re-parented worker "
            "span tree"
        )
    coverage = timeline_attribution(tree)
    if coverage < 0.95:
        raise RuntimeError(
            f"only {coverage:.1%} of submit->settle wall time is "
            "attributed to spans (need >= 95%)"
        )
    events = client.debug_events(trace=trace_id)["events"]
    kinds = {event["kind"] for event in events}
    for wanted in ("lease.granted", "lease.expired", "lease.completed"):
        if wanted not in kinds:
            raise RuntimeError(
                f"flight recorder has no {wanted} event for trace "
                f"{trace_id} (kinds: {sorted(kinds)})"
            )
    print(
        f"distributed trace ok: {total} points, {expired} expired "
        f"attempt(s), {reparented} worker tree(s) re-parented, "
        f"{coverage:.1%} attributed, {len(events)} recorder events"
    )


def dump_flight_recorder(client):
    """Best-effort post-mortem: print the event ring to stderr."""
    try:
        if client is None:
            raise RuntimeError("client never connected")
        debug = client.debug_events(limit=200)
    except Exception as error:  # server already gone
        print(f"--- flight recorder unavailable: {error!r}", file=sys.stderr)
        return
    print("--- flight recorder (most recent last) ---", file=sys.stderr)
    for event in debug["events"]:
        print(event, file=sys.stderr)
    print(f"--- recorder stats: {debug['stats']}", file=sys.stderr)


def start_server(env, port, cache_dir, jobs):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--cache-dir",
            cache_dir,
            "--jobs",
            str(jobs),
            "--lease-ttl",
            str(LEASE_TTL),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )


def kill_group(process) -> None:
    """SIGKILL ``process`` and everything in its session.

    Each process starts in a session of its own, so its process group
    holds its local-slot children (a forkserver and its workers) too.
    They inherit the stdout pipe, and ``communicate`` waits until every
    holder has closed it.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group has exited


def wait_healthy(client, server):
    for _attempt in range(50):
        if server.poll() is not None:
            raise RuntimeError("server exited before accepting")
        try:
            client.health()
            return
        except OSError:
            time.sleep(0.2)
    raise RuntimeError("server never became healthy")


def check_points(client, job, total):
    """The settled campaign has ``total`` distinct points, all ok."""
    finished = client.wait(job["id"], timeout=600)
    if finished["status"] != "done":
        raise RuntimeError(f"campaign failed: {finished.get('error')}")
    points = client.result(job["id"])["result"]["points"]
    if len(points) != total:
        raise RuntimeError(f"expected {total} points, got {len(points)}")
    keys = [point["key"] for point in points]
    if len(set(keys)) != total:
        raise RuntimeError(f"duplicate result keys: {sorted(keys)}")
    failed = [p for p in points if p.get("status") != "ok"]
    if failed:
        raise RuntimeError(f"failed points: {failed}")
    return set(keys)


def repro_query(env, cache_dir, *args):
    """One ``repro query ... --output json`` run's document."""
    output = subprocess.run(
        [
            sys.executable, "-m", "repro", "query", *args,
            "--cache-dir", cache_dir, "--output", "json",
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    return json.loads(output)


def check_rebuilt_index(env, cache_dir, first_job, counts):
    """The index rebuilt from the store alone lists every campaign with
    all its points, and still holds the first campaign's trace."""
    campaigns = {
        campaign["label"]: campaign["n_jobs"]
        for campaign in repro_query(env, cache_dir, "campaigns")["campaigns"]
    }
    if campaigns != counts:
        raise RuntimeError(f"rebuilt index lists {campaigns}, expected {counts}")
    timeline = repro_query(env, cache_dir, "timeline", first_job["id"])
    expired = [
        lease
        for experiment in timeline["tree"].get("children", ())
        for lease in experiment.get("children", ())
        if lease["name"] == "lease"
        and lease["attributes"].get("outcome") == "expired"
    ]
    if timeline["trace"] != first_job["trace"] or not expired:
        raise RuntimeError(
            f"rebuilt index lost the first campaign's trace: trace "
            f"{timeline['trace']!r}, {len(expired)} expired attempt(s)"
        )
    print(
        f"rebuilt index ok: campaigns {campaigns}, first trace with "
        f"{len(expired)} expired attempt(s)"
    )


def check_coordinator_kill(
    env, cache_dir, port, server, survivor, processes, first_job
):
    """SIGKILL ``serve`` mid-campaign, delete the warehouse, restart,
    resubmit: nothing lost, duplicated or recomputed.  ``processes``
    collects the restarted server for the caller's cleanup."""
    from repro.campaign import ResultStore
    from repro.service import ServiceClient

    store = ResultStore(cache_dir)
    before = len(store)
    # The first campaign's 8 points plus 8 new ones.
    spec = {
        "benchmarks": ["171.swim", "172.mgrid", "173.applu", "168.wupwise"],
        "scale": 0.05,
        "buses_grid": [1, 2],
        "ed2_refinement_grid": [True, False],
    }
    total = 16
    client = ServiceClient(port=port, timeout=30)
    client.submit_campaign(spec=spec, label="fleet-smoke-resume")
    deadline = time.monotonic() + 300
    while len(store) <= before:
        if time.monotonic() > deadline:
            raise RuntimeError("no new point settled before the kill")
        time.sleep(0.05)
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=30)
    survivor.kill()  # resumed points must run on the new local slots
    survivor.wait(timeout=30)
    settled = set(store.keys())
    if not before < len(settled) < total:
        raise RuntimeError(
            f"kill was not mid-campaign: {len(settled)}/{total} settled"
        )
    print(f"killed serve mid-campaign: {len(settled)}/{total} points settled")
    # The index is disposable: the restarted server rebuilds it from
    # the store's job entries, memberships and traces.
    for suffix in ("", "-wal", "-shm"):
        Path(cache_dir, f"warehouse.sqlite{suffix}").unlink(missing_ok=True)

    port = free_port()
    restarted = start_server(env, port, cache_dir, jobs=2)
    processes["serve (restarted)"] = restarted
    client = ServiceClient(port=port, timeout=30)
    wait_healthy(client, restarted)
    job = client.submit_campaign(spec=spec, label="fleet-smoke-resume")
    keys = check_points(client, job, total)
    if set(store.keys()) != keys:
        raise RuntimeError("store and campaign disagree on the point set")
    store_hits = metric_total(
        client.metrics(), 'repro_service_dedup_hits_total{level="store"}'
    )
    computed = client.stats()["jobs"]["computed"]
    if store_hits != len(settled) or computed != total - len(settled):
        raise RuntimeError(
            f"settled points recomputed: {store_hits:g} store hits and "
            f"{computed} computed, expected {len(settled)} and "
            f"{total - len(settled)}"
        )
    # The resumed points ran on the restarted server's local slots, and
    # their traced payloads carried the worker span trees back.
    local_trees = 0
    for experiment in client.timeline(job["id"])["tree"]["children"]:
        for lease in experiment.get("children", ()):
            attributes = lease.get("attributes", {})
            if lease["name"] == "lease" and attributes.get("worker") == "local":
                local_trees += bool(lease.get("children"))
    if local_trees != total - len(settled):
        raise RuntimeError(
            f"{local_trees} local worker span trees for "
            f"{total - len(settled)} resumed points"
        )
    print(
        f"coordinator kill ok: {total} points once each, "
        f"{len(settled)} answered from the store, "
        f"{computed} computed on local slots"
    )
    check_rebuilt_index(
        env, cache_dir, first_job, {"fleet-smoke": 8, "fleet-smoke-resume": total}
    )


def start_worker(env, port, worker_id):
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
            "--ttl",
            str(LEASE_TTL),
            "--poll",
            "0.2",
            "--stay-on-drain",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}" + env.get("PYTHONPATH", "")
    port = free_port()
    with tempfile.TemporaryDirectory() as cache_dir:
        server = start_server(env, port, cache_dir, jobs=0)
        processes = {"serve": server}
        workers = {}
        victim = None
        client = None
        try:
            sys.path.insert(0, str(ROOT / "src"))
            from repro.service import ServiceClient

            client = ServiceClient(port=port, timeout=30)
            wait_healthy(client, server)

            for worker_id in ("w1", "w2"):
                workers[worker_id] = start_worker(env, port, worker_id)
            processes.update(workers)

            # 2 benchmarks x 2 bus counts x 2 ED2 switches = 8 points.
            total = 8
            job = client.submit_campaign(
                spec={
                    "benchmarks": ["171.swim", "172.mgrid"],
                    "scale": 0.05,
                    "buses_grid": [1, 2],
                    "ed2_refinement_grid": [True, False],
                },
                label="fleet-smoke",
            )
            print(f"submitted campaign {job['id']} ({total} points)")

            # Wait for a worker to actually hold a lease, then SIGKILL
            # it -- the job it held must be stolen and recomputed.
            deadline = time.monotonic() + 120
            while victim is None and time.monotonic() < deadline:
                for info in client.stats()["fleet"]["workers"]:
                    if info["active"] > 0 and info["id"] in workers:
                        victim = info["id"]
                        break
                time.sleep(0.1)
            if victim is None:
                raise RuntimeError("no worker ever held a lease")
            workers[victim].send_signal(signal.SIGKILL)
            workers[victim].wait(timeout=30)
            print(f"killed {victim} while it held a lease")

            check_points(client, job, total)
            print(f"campaign done: {total} points, all ok, no duplicates")

            check_distributed_trace(client, job, total)

            scrape = client.metrics()
            granted = metric_total(
                scrape, 'repro_fleet_leases_total{event="granted"}'
            )
            completed = metric_total(
                scrape, 'repro_fleet_leases_total{event="completed"}'
            )
            expired = metric_total(
                scrape, 'repro_fleet_leases_total{event="expired"}'
            )
            if completed < total:
                raise RuntimeError(
                    f"expected >= {total} completed leases, got {completed}"
                )
            if expired < 1:
                raise RuntimeError(
                    "the killed worker's lease never expired "
                    f"(expired={expired})"
                )
            if metric_total(scrape, "repro_fleet_lease_seconds_count") < 1:
                raise RuntimeError("/metrics lease latency histogram empty")
            # This run never approached the admission limits or set a
            # deadline: overload counters must not fire spuriously.
            rejected = metric_total(scrape, "repro_service_rejected_total")
            if rejected != 0:
                raise RuntimeError(
                    f"unloaded run rejected {rejected:g} submissions"
                )
            expired_deadlines = metric_total(
                scrape, "repro_service_deadline_exceeded_total"
            )
            if expired_deadlines != 0:
                raise RuntimeError(
                    "deadline counter fired without deadlines: "
                    f"{expired_deadlines:g}"
                )
            print(
                f"metrics ok: granted={granted:g} completed={completed:g} "
                f"expired={expired:g} rejected=0 deadline_exceeded=0"
            )

            survivor = [w for w in workers if w != victim][0]
            ids = [w["id"] for w in client.stats()["fleet"]["workers"]]
            if survivor not in ids:
                raise RuntimeError(f"{survivor} missing from registry: {ids}")

            check_coordinator_kill(
                env, cache_dir, port, server, workers[survivor], processes, job
            )
        except BaseException:
            dump_flight_recorder(client)
            for name, process in processes.items():
                # Also when the leader has exited: its children may not.
                kill_group(process)
                output, _ = process.communicate(timeout=30)
                print(f"--- {name} log ---\n" + (output or ""), file=sys.stderr)
            raise
        else:
            for name, process in processes.items():
                if process.poll() is None:
                    process.terminate()
                output, _ = process.communicate(timeout=30)
                if name in workers and name != victim and output:
                    print(f"{name}: {output.strip().splitlines()[-1]}")
    print("fleet smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Overload, deadline and resilience tests for the service + fleet.

The robustness contract: under flood the service sheds load with
429 + Retry-After instead of queueing unboundedly, deadlines cancel
work that would be computed too late (including queued fleet entries
that never got a lease), dispatch is weighted-fair so batch floods
can't starve interactive traffic, and — the acceptance bar — under a
4x queue-bound flood with chaos enabled (worker crashes + SQLite busy
storms) the server stays responsive and completes every admitted job
exactly once.
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import chaos
from repro.chaos import FaultPlan
from repro.fleet import FleetWorker, LeaseQueue
from repro.fleet.queue import BATCH, INTERACTIVE
from repro.service import (
    AdmissionPolicy,
    JobManager,
    ServiceClient,
    ServiceOverloadError,
    start_in_thread,
)
from repro.service.jobs import ServiceOverloadError as ManagerOverloadError
from repro.warehouse import Warehouse

from test_fleet import FakeClock, job_dict, ok_payload
from test_service import CountingRunner, run_async


@pytest.fixture(autouse=True)
def clean_chaos():
    chaos.uninstall()
    yield
    chaos.uninstall()


def make_manager(runner, admission=None, default_deadline=None, threads=8):
    return JobManager(
        run_payload=runner,
        max_workers=threads,
        admission=admission,
        default_deadline=default_deadline,
    )


def evaluate_request(index, **extra):
    benchmarks = ("171.swim", "172.mgrid", "173.applu", "168.wupwise")
    return dict(
        {
            "benchmark": benchmarks[index % len(benchmarks)],
            "scale": 0.01 + (index // len(benchmarks)) / 1000.0,
        },
        **extra,
    )


# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self):
        runner = CountingRunner(delay=0.5)

        async def body():
            manager = make_manager(
                runner,
                admission=AdmissionPolicy(
                    max_interactive=2, retry_after_s=0.7
                ),
            )
            manager.submit_evaluate(evaluate_request(0))
            manager.submit_evaluate(evaluate_request(1))
            with pytest.raises(ManagerOverloadError) as info:
                manager.submit_evaluate(evaluate_request(2))
            assert info.value.retry_after_s == 0.7
            assert info.value.job_class == INTERACTIVE
            assert manager.stats["rejected"] == 1
            await manager.close()

        run_async(body)

    def test_duplicate_submission_bypasses_admission(self):
        # Dedup attaches are free: rejecting them would punish the
        # cheapest possible request while the identical job already
        # occupies its slot.
        runner = CountingRunner(delay=0.3)

        async def body():
            manager = make_manager(
                runner, admission=AdmissionPolicy(max_interactive=1)
            )
            first = manager.submit_evaluate(evaluate_request(0))
            again = manager.submit_evaluate(evaluate_request(0))
            assert again.id == first.id
            assert again.submissions == 2
            await manager.close()

        run_async(body)

    def test_http_429_with_retry_after_header_then_retry_succeeds(self):
        runner = CountingRunner(delay=0.6)

        def factory():
            return make_manager(
                runner,
                admission=AdmissionPolicy(
                    max_interactive=2, retry_after_s=0.5
                ),
            )

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=30
            )
            client.submit_evaluate(**evaluate_request(0))
            client.submit_evaluate(**evaluate_request(1))

            # The raw surface: 429, structured body, Retry-After header.
            status, headers, document = client._roundtrip(
                "POST", "/v1/evaluate", evaluate_request(2)
            )
            assert status == 429
            assert document["error"]["code"] == "overloaded"
            assert document["error"]["retry_after_s"] == 0.5
            assert headers["retry-after"] == "1"

            # No retries => typed overload error with the server's hint.
            impatient = ServiceClient(
                host=handle.host, port=handle.port, max_retries=0
            )
            with pytest.raises(ServiceOverloadError) as info:
                impatient.submit_evaluate(**evaluate_request(2))
            assert info.value.status == 429
            assert info.value.retry_after_s == 0.5

            # With retries the same submission rides out the flood: the
            # in-flight jobs (0.6s) finish well inside the retry budget.
            patient = ServiceClient(
                host=handle.host,
                port=handle.port,
                timeout=30,
                max_retries=6,
                backoff_s=0.2,
            )
            job = patient.submit_evaluate(**evaluate_request(2))
            assert patient.wait(job["id"], timeout=30)["status"] == "done"

            stats = client.stats()
            assert stats["jobs"]["rejected"] >= 2
            assert stats["admission"]["limits"]["interactive"] == 2


# ----------------------------------------------------------------------
class TestDeadlines:
    def test_queue_cancels_expired_pending_without_lease(self):
        # The fleet queue half of the contract: a request deadline on a
        # *pending* entry settles it failed at expiry — the lease is
        # never granted, the work never computed.
        clock = FakeClock()
        queue = LeaseQueue(ttl=30, clock=clock)
        events = []
        queue.add_observer(lambda event, _key, _info: events.append(event))
        key, data = job_dict()
        queue.submit(key, data, deadline=clock.now + 5)
        clock.advance(6)
        assert queue.lease("w1") == []
        assert queue.entry_state(key) == "failed"
        assert "deadline" in events
        assert "failed" in events

    def test_duplicate_submit_relaxes_deadline(self):
        # Two clients want the same job; the one content to wait longer
        # defines the deadline (and "no deadline" wins outright).
        clock = FakeClock()
        queue = LeaseQueue(ttl=30, clock=clock)
        key, data = job_dict()
        queue.submit(key, data, deadline=clock.now + 5)
        queue.submit(key, data, deadline=clock.now + 60)
        clock.advance(10)  # past the first deadline, inside the second
        [grant] = queue.lease("w1")
        assert grant.key == key

    def test_deadline_expiry_cancels_queued_fleet_work(self, tmp_path):
        # Service-level: no workers are connected, so the job sits
        # pending in the fleet queue until its deadline kills it. A
        # worker arriving later must find nothing to lease.
        store_dir = tmp_path / "cache"

        def factory():
            return JobManager(max_workers=0, default_deadline=None)

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=30
            )
            job = client.submit_evaluate(
                **evaluate_request(0, deadline_s=0.3)
            )
            done = client.wait(job["id"], timeout=15)
            assert done["status"] == "failed"
            assert "deadline exceeded" in done["error"]
            assert done["deadline_s"] == 0.3

            # The queued fleet entry was cancelled, not orphaned: a
            # late worker gets no lease for it.
            leases = client.fleet_lease("late-worker", max_jobs=8)
            assert leases["leases"] == []
            fleet = client.stats()["fleet"]
            assert fleet["leases"].get("deadline", 0) >= 1
        assert not store_dir.exists()  # nothing was ever computed

    def test_shared_point_keeps_the_patient_callers_deadline(self):
        # A campaign joining a short-deadline evaluate's queued point
        # must not inherit that deadline: the point stays leasable
        # after the evaluate gives up, and the campaign gets its result.
        async def body():
            manager = JobManager(max_workers=0, default_deadline=None)
            request = evaluate_request(0)
            evaluate = manager.submit_evaluate(dict(request, deadline_s=0.3))
            campaign = manager.submit_campaign(
                {"benchmarks": [request["benchmark"]], "scale": request["scale"]}
            )
            await asyncio.sleep(0.8)
            assert (await manager.wait(evaluate.id, timeout=1)).status == "failed"
            [grant] = manager.fleet.lease("late-worker")
            assert grant.key == evaluate.id
            accepted, _ = manager.fleet.complete(
                "late-worker", grant.token, ok_payload(grant.job)
            )
            assert accepted
            finished = await manager.wait(campaign.id, timeout=10)
            assert finished.status == "done"
            [point] = finished.result["points"]
            assert point["status"] == "ok"
            assert manager.stats["computed"] == 1
            assert manager.stats["inflight_hits"] == 1
            await manager.close()

        run_async(body)

    def test_close_fails_running_jobs(self):
        async def body():
            manager = JobManager(max_workers=0, default_deadline=None)
            job = manager.submit_evaluate(evaluate_request(0))
            campaign = manager.submit_campaign({"benchmarks": ["172.mgrid"]})
            await asyncio.sleep(0.1)
            await manager.close()
            for settled in (job, campaign):
                assert settled.status == "failed"
                assert settled.error == "cancelled: service shutting down"

        run_async(body)

    def test_deadline_via_header_and_default(self):
        runner = CountingRunner(delay=0.05)

        def factory():
            return make_manager(runner, default_deadline=45.0)

        with start_in_thread(factory) as handle:
            client = ServiceClient(host=handle.host, port=handle.port)
            # Body field absent -> the serve-wide default applies.
            job = client.submit_evaluate(**evaluate_request(0))
            assert job["deadline_s"] == 45.0
            # The X-Repro-Deadline header overrides the default.
            status, _headers, document = client._roundtrip(
                "POST",
                "/v1/evaluate",
                evaluate_request(1),
                headers={"X-Repro-Deadline": "7.5"},
            )
            assert status in (200, 202)
            assert document["job"]["deadline_s"] == 7.5

    def test_invalid_deadline_rejected(self):
        runner = CountingRunner()

        async def body():
            manager = make_manager(runner)
            from repro.service import ServiceError

            with pytest.raises(ServiceError):
                manager.submit_evaluate(
                    evaluate_request(0, deadline_s="soon")
                )
            with pytest.raises(ServiceError):
                manager.submit_evaluate(
                    evaluate_request(0, deadline_s=-1)
                )
            await manager.close()

        run_async(body)


# ----------------------------------------------------------------------
class TestWeightedFairness:
    def test_wrr_interleaves_classes_4_to_1(self):
        queue = LeaseQueue(ttl=30)
        for index in range(12):
            key, data = job_dict(scale=0.02 + index / 1000)
            queue.submit(key, data, job_class=INTERACTIVE)
        for index in range(12):
            key, data = job_dict(scale=0.05 + index / 1000)
            queue.submit(key, data, job_class=BATCH)
        grants = queue.lease("w1", max_jobs=10)
        classes = [
            queue._entries[grant.key].job_class for grant in grants
        ]
        # 4:1 weights -> exactly 8 interactive + 2 batch in 10 grants,
        # and batch is *not* starved to the tail.
        assert classes.count(INTERACTIVE) == 8
        assert classes.count(BATCH) == 2
        assert BATCH in classes[:5]

    def test_batch_flood_does_not_starve_interactive(self):
        # Every pending slot is batch work when the evaluate arrives;
        # WRR must schedule the evaluate ahead of the flood's tail.
        queue = LeaseQueue(ttl=30)
        for index in range(20):
            key, data = job_dict(scale=0.05 + index / 1000)
            queue.submit(key, data, job_class=BATCH)
        key, _data = job_dict(scale=0.011)
        queue.submit(key, _data, job_class=INTERACTIVE)
        grants = queue.lease("w1", max_jobs=2)
        assert key in [grant.key for grant in grants]

    def test_service_evaluate_completes_during_campaign_flood(self):
        runner = CountingRunner(delay=0.15)

        def factory():
            return make_manager(
                runner,
                admission=AdmissionPolicy(max_batch=None),
                threads=2,
            )

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=60
            )
            for index in range(6):
                # Distinct scales => distinct points: a genuine flood,
                # not six labels deduping onto four shared points.
                client.submit_campaign(
                    benchmarks=["172.mgrid", "173.applu"],
                    scale=0.02 + index / 1000.0,
                    buses_grid=[1, 2],
                    label=f"flood-{index}",
                )
            job = client.submit_evaluate(**evaluate_request(0))
            done = client.wait(job["id"], timeout=30)
            assert done["status"] == "done"
            # The interactive job finished while batch work remained.
            pending = client.stats()["fleet"]["pending_by_class"]
            assert pending.get(BATCH, 0) > 0


# ----------------------------------------------------------------------
class TestBoundedWait:
    def test_long_poll_times_out_with_504_and_job_document(self):
        runner = CountingRunner(delay=1.0)

        def factory():
            return make_manager(runner)

        with start_in_thread(factory) as handle:
            client = ServiceClient(host=handle.host, port=handle.port)
            job = client.submit_evaluate(**evaluate_request(0))
            status, _headers, document = client._roundtrip(
                "GET", f"/v1/jobs/{job['id']}?wait=1&timeout=0.2"
            )
            assert status == 504
            assert document["error"]["code"] == "wait_timeout"
            # The poll-again contract: the body still carries the job.
            assert document["job"]["id"] == job["id"]
            assert document["job"]["status"] in ("queued", "running")
            final = client.wait(job["id"], timeout=15)
            assert final["status"] == "done"

    def test_wait_clamped_to_server_cap(self):
        runner = CountingRunner(delay=0.6)

        def factory():
            return make_manager(runner)

        with start_in_thread(factory) as handle:
            handle.server.MAX_WAIT_S = 0.2  # shrink the cap for the test
            client = ServiceClient(host=handle.host, port=handle.port)
            job = client.submit_evaluate(**evaluate_request(0))
            t0 = time.monotonic()
            status, _headers, document = client._roundtrip(
                "GET", f"/v1/jobs/{job['id']}?wait=1&timeout=3600"
            )
            elapsed = time.monotonic() - t0
            assert status == 504
            assert elapsed < 2.0  # nowhere near the requested hour
            client.wait(job["id"], timeout=15)

    def test_client_wait_rides_out_server_timeouts(self):
        # ServiceClient.wait re-polls on 504 until the job settles.
        runner = CountingRunner(delay=0.5)

        def factory():
            return make_manager(runner)

        with start_in_thread(factory) as handle:
            handle.server.MAX_WAIT_S = 0.15
            handle.server.DEFAULT_WAIT_S = 0.15
            client = ServiceClient(host=handle.host, port=handle.port)
            job = client.submit_evaluate(**evaluate_request(0))
            done = client.wait(job["id"], timeout=20)
            assert done["status"] == "done"

    def test_drain_while_streaming_events_unblocks(self):
        # Server shutdown must terminate open /events streams instead
        # of deadlocking close() behind them.
        runner = CountingRunner(delay=0.4)

        def factory():
            return make_manager(runner)

        handle = start_in_thread(factory)
        client = ServiceClient(host=handle.host, port=handle.port)
        job = client.submit_evaluate(**evaluate_request(0))
        seen = []
        finished = threading.Event()

        def stream():
            try:
                for record in client.events(job["id"]):
                    seen.append(record["event"])
            except Exception:
                pass  # mid-stream disconnect on shutdown is acceptable
            finished.set()

        thread = threading.Thread(target=stream, daemon=True)
        thread.start()
        time.sleep(0.15)  # the stream is open and waiting on events
        t0 = time.monotonic()
        handle.stop()
        assert finished.wait(10), "events stream never terminated"
        assert time.monotonic() - t0 < 8.0
        assert "submitted" in seen


# ----------------------------------------------------------------------
class TestAcceptanceUnderChaos:
    def test_4x_flood_with_chaos_sheds_and_completes_exactly_once(self):
        """The PR's acceptance bar, end to end.

        4x the admission capacity is offered while chaos injects worker
        crashes and SQLite busy storms. The server must stay responsive
        (/healthz p99 < 100ms), shed overflow with 429 + Retry-After,
        and drive every admitted job to done exactly once.
        """
        capacity = 6
        offered = capacity * 4
        executions = {}
        lock = threading.Lock()

        def counting_execute(job_data):
            key = (job_data["benchmark"], job_data["scale"])
            with lock:
                executions[key] = executions.get(key, 0) + 1
            time.sleep(0.05)
            return ok_payload(job_data)

        warehouse = Warehouse()

        def factory():
            return JobManager(
                warehouse=warehouse,
                max_workers=0,  # fleet workers do all execution
                lease_ttl=0.8,
                fleet_retries=10,
                admission=AdmissionPolicy(
                    max_interactive=capacity, retry_after_s=0.1
                ),
            )

        chaos.install(
            FaultPlan(worker_crash_p=0.15, sqlite_busy_p=0.5, seed=13)
        )
        handle = start_in_thread(factory)
        workers = []
        try:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=30
            )
            # Three fleet workers whose "crash" drops the lease on the
            # floor (no release, no complete) — the worst failure mode.
            for index in range(3):
                worker = FleetWorker(
                    ServiceClient(host=handle.host, port=handle.port),
                    worker_id=f"chaos-{index}",
                    ttl=0.8,
                    poll=0.05,
                    execute=counting_execute,
                    exit_on_drain=False,
                    crash=lambda: None,
                )
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                workers.append((worker, thread))

            # /healthz prober running through the whole flood.
            health_samples = []
            stop_probe = threading.Event()

            def probe():
                prober = ServiceClient(
                    host=handle.host, port=handle.port, timeout=5
                )
                while not stop_probe.is_set():
                    t0 = time.monotonic()
                    assert prober.health()["status"] == "ok"
                    health_samples.append(time.monotonic() - t0)
                    time.sleep(0.02)

            prober_thread = threading.Thread(target=probe, daemon=True)
            prober_thread.start()

            rejections = [0]
            admitted = {}

            def flood(index):
                # Distinct jobs; retry with the server's hint until
                # admitted (as a well-behaved client would).
                submitter = ServiceClient(
                    host=handle.host,
                    port=handle.port,
                    timeout=30,
                    max_retries=0,
                )
                request = evaluate_request(index)
                while True:
                    try:
                        job = submitter.submit_evaluate(**request)
                    except ServiceOverloadError as error:
                        with lock:
                            rejections[0] += 1
                        time.sleep(error.retry_after_s or 0.1)
                        continue
                    with lock:
                        admitted[job["id"]] = request
                    return

            with ThreadPoolExecutor(max_workers=offered) as pool:
                list(pool.map(flood, range(offered)))

            assert len(admitted) == offered  # distinct requests
            assert rejections[0] > 0  # the flood genuinely overflowed

            for job_id in admitted:
                done = client.wait(job_id, timeout=60)
                assert done["status"] == "done", done.get("error")

            stop_probe.set()
            prober_thread.join(5)

            # Exactly once: the queue accepted exactly one completion
            # per admitted job (late crash-recovery writers lose), and
            # none of them failed.
            stats = client.stats()
            counters = stats["fleet"]["leases"]
            assert counters.get("completed", 0) == offered
            assert counters.get("failed", 0) == 0
            assert stats["jobs"]["rejected"] == rejections[0]
            # Crashes forced re-executions, but completion is single.
            assert len(executions) == offered
            assert sum(executions.values()) >= offered

            # Responsiveness under flood + chaos: p99 < 100ms.
            ordered = sorted(health_samples)
            assert len(ordered) >= 20
            p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            assert p99 < 0.100, f"/healthz p99 {p99 * 1e3:.1f}ms"
        finally:
            for worker, _thread in workers:
                worker.request_abort()
            for _worker, thread in workers:
                thread.join(10)
            handle.stop()
            warehouse.close()

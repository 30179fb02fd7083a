"""Tests for the distributed worker fleet (repro.fleet).

Covers the lease queue's state machine (expiry -> requeue, double-lease
prevention, late-writer-loses completion, bounded retry), the service
coordinator, the HTTP worker protocol, graceful worker shutdown, and
the N-workers == single-pool equivalence property.
"""

import asyncio
import random
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import ExperimentJob, ResultStore, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.fleet import (
    FleetCoordinator,
    FleetError,
    FleetWorker,
    LeaseQueue,
    error_payload,
    sleep_runner,
)
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json
from repro.service import JobManager, ServiceClient, start_in_thread
from repro.warehouse import Warehouse

from test_warehouse import make_payload


def job_dict(benchmark="171.swim", scale=0.01, buses=1):
    job = ExperimentJob(
        benchmark=benchmark,
        scale=scale,
        options=ExperimentOptions(n_buses=buses),
    )
    return job.key(), job.to_dict()


def ok_payload(job_data):
    return {
        "schema": 1,
        "job": job_data,
        "status": "ok",
        "elapsed_s": 0.01,
        "evaluation": None,
        "error": None,
    }


class FakeClock:
    """A controllable monotonic clock for deterministic expiry tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
class TestLeaseQueue:
    def test_lease_grants_pending_jobs_in_order(self):
        queue = LeaseQueue(ttl=10)
        keys = []
        for benchmark in ("171.swim", "172.mgrid", "173.applu"):
            key, data = job_dict(benchmark)
            queue.submit(key, data)
            keys.append(key)
        grants = queue.lease("w1", max_jobs=2)
        assert [g.key for g in grants] == keys[:2]
        assert all(g.worker == "w1" and g.attempt == 1 for g in grants)
        assert queue.stats() == {
            "pending": 1, "leased": 2, "done": 0, "failed": 0, "total": 3,
        }

    def test_submit_is_idempotent_by_key(self):
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        assert queue.submit(key, data) is True
        assert queue.submit(key, data) is False
        assert queue.stats()["total"] == 1

    def test_double_lease_prevented(self):
        # A leased job must never be granted again while the lease holds.
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        queue.submit(key, data)
        assert len(queue.lease("w1")) == 1
        assert queue.lease("w2") == []
        assert queue.lease("w1") == []

    def test_expiry_requeues_for_stealing(self):
        clock = FakeClock()
        queue = LeaseQueue(ttl=5, clock=clock)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        clock.advance(6)  # w1 went silent past its TTL
        [stolen] = queue.lease("w2")
        assert stolen.key == key
        assert stolen.attempt == 2
        assert stolen.token != grant.token
        accepted, _ = queue.complete("w2", stolen.token, ok_payload(data))
        assert accepted
        assert queue.entry_state(key) == "done"

    def test_late_completion_after_expiry_loses_cleanly(self):
        clock = FakeClock()
        queue = LeaseQueue(ttl=5, clock=clock)
        key, data = job_dict()
        queue.submit(key, data)
        [old] = queue.lease("w1")
        clock.advance(6)
        [new] = queue.lease("w2")
        # w1 wakes up and posts its result under the expired token.
        accepted, reason = queue.complete("w1", old.token, ok_payload(data))
        assert not accepted
        assert "lease" in reason
        # The current holder still completes normally: exactly one win.
        accepted, _ = queue.complete("w2", new.token, ok_payload(data))
        assert accepted

    def test_completion_by_wrong_worker_rejected(self):
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        accepted, reason = queue.complete("w2", grant.token, ok_payload(data))
        assert not accepted and "w1" in reason

    def test_retry_cap_records_failure(self):
        clock = FakeClock()
        queue = LeaseQueue(ttl=5, max_attempts=2, clock=clock)
        key, data = job_dict()
        done = []
        queue.submit(key, data, on_done=lambda entry: done.append(entry))
        for _ in range(2):  # both attempts die silently
            assert len(queue.lease("doomed")) == 1
            clock.advance(6)
            queue.expire()
        assert queue.lease("w2") == []  # not requeued a third time
        assert queue.entry_state(key) == "failed"
        [entry] = done
        payload = entry.result_payload()
        assert payload["status"] == "error"
        assert "expired" in payload["error"]
        assert "2" in payload["error"]

    def test_error_completion_is_terminal(self):
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        accepted, _ = queue.complete(
            "w1", grant.token, error_payload(data, "boom")
        )
        assert accepted
        assert queue.entry_state(key) == "failed"
        assert queue.result(key)["error"] == "boom"

    def test_release_returns_job_without_burning_an_attempt(self):
        queue = LeaseQueue(ttl=10, max_attempts=1)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        assert queue.release("w1", grant.token)
        # Even at max_attempts=1 the released job leases again: the
        # voluntary hand-back un-counted the attempt.
        [again] = queue.lease("w2")
        assert again.attempt == 1

    def test_renew_extends_and_reports_lost(self):
        clock = FakeClock()
        queue = LeaseQueue(ttl=5, clock=clock)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        clock.advance(4)
        outcome = queue.renew("w1", [grant.token])
        assert outcome == {"renewed": [grant.token], "lost": []}
        clock.advance(4)  # 8s since lease, 4s since renewal: still live
        assert queue.lease("w2") == []
        clock.advance(6)
        outcome = queue.renew("w1", [grant.token])
        assert outcome == {"renewed": [], "lost": [grant.token]}

    def test_drain_stops_grants_but_accepts_completions(self):
        queue = LeaseQueue(ttl=10)
        key_a, data_a = job_dict("171.swim")
        key_b, data_b = job_dict("172.mgrid")
        queue.submit(key_a, data_a)
        queue.submit(key_b, data_b)
        [grant] = queue.lease("w1")
        queue.drain()
        assert queue.lease("w1") == []  # key_b stays pending
        accepted, _ = queue.complete("w1", grant.token, ok_payload(data_a))
        assert accepted
        assert queue.stats()["pending"] == 1

    def test_done_callback_fires_immediately_for_settled_entry(self):
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        queue.complete("w1", grant.token, ok_payload(data))
        late = []
        queue.submit(key, data, on_done=lambda entry: late.append(entry))
        assert len(late) == 1 and late[0].state == "done"

    def test_forget_drops_only_terminal_entries(self):
        queue = LeaseQueue(ttl=10)
        key, data = job_dict()
        queue.submit(key, data)
        assert not queue.forget(key)  # pending entries are kept
        [grant] = queue.lease("w1")
        assert not queue.forget(key)  # leased too
        queue.complete("w1", grant.token, ok_payload(data))
        assert queue.forget(key)
        assert queue.entry_state(key) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FleetError):
            LeaseQueue(ttl=0)
        with pytest.raises(FleetError):
            LeaseQueue(max_attempts=0)
        queue = LeaseQueue(ttl=10)
        with pytest.raises(FleetError):
            queue.lease("")
        with pytest.raises(FleetError):
            queue.lease("w1", ttl=-1)


# ----------------------------------------------------------------------
class TestFleetCoordinator:
    def test_submit_future_resolves_on_completion(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        coordinator = FleetCoordinator(store=store, ttl=10)
        key, data = job_dict()
        _job, payload = make_payload()

        async def body():
            future, added = coordinator.submit(key, data)
            assert added
            [grant] = coordinator.lease("w1")
            accepted, _ = coordinator.complete(
                "w1", grant.token, dict(payload, job=data)
            )
            assert accepted
            resolved = await asyncio.wait_for(future, timeout=5)
            assert resolved["status"] == "ok"

        asyncio.run(body())
        # Write-through: the store holds the payload under the job key.
        assert store.get(key)["status"] == "ok"
        # The terminal entry was evicted: a resubmission would run fresh.
        assert coordinator.queue.entry_state(key) is None

    def test_error_payloads_not_written_to_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        coordinator = FleetCoordinator(store=store, ttl=10)
        key, data = job_dict()

        async def body():
            future, added = coordinator.submit(key, data)
            assert added
            [grant] = coordinator.lease("w1")
            coordinator.complete(
                "w1", grant.token, error_payload(data, "boom")
            )
            resolved = await asyncio.wait_for(future, timeout=5)
            assert resolved["status"] == "error"

        asyncio.run(body())
        assert store.get(key) is None

    def test_worker_registry_tracks_activity(self):
        coordinator = FleetCoordinator(ttl=10)
        key, data = job_dict()
        coordinator.queue.submit(key, data)
        [grant] = coordinator.lease("w1")
        coordinator.complete("w1", grant.token, ok_payload(data))
        stats = coordinator.stats()
        [worker] = stats["workers"]
        assert worker["id"] == "w1"
        assert worker["leases"] == 1
        assert worker["completed"] == 1
        assert worker["active"] == 0
        assert stats["leases"]["granted"] == 1
        assert stats["leases"]["completed"] == 1


# ----------------------------------------------------------------------
def fleet_service(tmp_path, lease_ttl=10.0, fleet_retries=3):
    """A service with no local execution: fleet workers do everything."""
    store = ResultStore(tmp_path / "cache")
    warehouse = Warehouse.for_store(store)
    service = start_in_thread(
        lambda: JobManager(
            store=store,
            warehouse=warehouse,
            max_workers=0,
            lease_ttl=lease_ttl,
            fleet_retries=fleet_retries,
        )
    )
    return service, store, warehouse


class TestFleetHttpProtocol:
    def test_lease_execute_complete_over_http(self, tmp_path):
        service, store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            job = client.submit_evaluate(benchmark="171.swim", scale=0.01)
            # Pull the job exactly as `repro worker` would.
            deadline = time.monotonic() + 10
            leases = []
            while not leases and time.monotonic() < deadline:
                response = client.fleet_lease("w1", max_jobs=4)
                leases = response["leases"]
                if not leases:
                    time.sleep(0.05)
            [grant] = leases
            _job, payload = make_payload()
            reply = client.fleet_complete(
                "w1", grant["token"], dict(payload, job=grant["job"])
            )
            assert reply["accepted"] is True
            finished = client.wait(job["id"], timeout=10)
            assert finished["status"] == "done"
            stats = client.stats()
            assert [w["id"] for w in stats["fleet"]["workers"]] == ["w1"]
            metrics = client.metrics()
            assert "repro_fleet_workers" in metrics
            assert 'repro_fleet_leases_total{event="granted"}' in metrics
            assert 'repro_fleet_leases_total{event="completed"}' in metrics
        finally:
            service.stop()
            warehouse.close()

    def test_fleet_requests_validated(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            for path, body in [
                ("/v1/fleet/lease", {}),  # no worker
                ("/v1/fleet/complete", {"worker": "w"}),  # no token
                (
                    "/v1/fleet/complete",
                    {"worker": "w", "token": "t", "payload": []},
                ),
                ("/v1/fleet/renew", {"worker": "w", "tokens": "t"}),
                ("/v1/fleet/release", {"worker": "w"}),
            ]:
                status, _ = client.request("POST", path, body=body)
                assert status == 400, path
            status, _ = client.request("GET", "/v1/fleet/lease")
            assert status == 405
        finally:
            service.stop()
            warehouse.close()

    def test_drain_endpoint_stops_leasing(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            assert client.fleet_drain() == {"draining": True}
            response = client.fleet_lease("w1")
            assert response["leases"] == []
            assert response["draining"] is True
        finally:
            service.stop()
            warehouse.close()

    def test_store_cached_keys_never_reach_workers(self, tmp_path):
        # Multi-worker campaign resume: pre-cached points answer from
        # the store; the fleet queue only ever sees the missing ones.
        store = ResultStore(tmp_path / "cache")
        job, payload = make_payload(
            benchmark="171.swim",
            scale=0.01,
            options=ExperimentOptions(),
        )
        store.save(job.key(), payload)
        warehouse = Warehouse.for_store(store)
        service = start_in_thread(
            lambda: JobManager(store=store, warehouse=warehouse, max_workers=0)
        )
        try:
            client = ServiceClient(host=service.host, port=service.port)
            submitted = client.submit_evaluate(
                benchmark="171.swim", scale=0.01
            )
            finished = client.wait(submitted["id"], timeout=10)
            assert finished["status"] == "done"
            stats = client.stats()
            assert stats["jobs"]["store_hits"] == 1
            assert stats["fleet"]["queue"]["total"] == 0
        finally:
            service.stop()
            warehouse.close()


# ----------------------------------------------------------------------
def instant_execute(job_data):
    return ok_payload(job_data)


class TestFleetWorker:
    def submit_jobs(self, client, n=1):
        jobs = []
        for buses in range(1, n + 1):
            jobs.append(
                client.submit_evaluate(
                    benchmark="171.swim",
                    scale=0.01,
                    buses=buses,
                )
            )
        return jobs

    def test_worker_drains_queue_and_exits_on_max_jobs(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            jobs = self.submit_jobs(client, n=2)
            worker = FleetWorker(
                client,
                worker_id="w1",
                ttl=10,
                poll=0.05,
                execute=instant_execute,
                max_jobs=2,
            )
            stats = worker.run()
            assert stats.completed == 2
            assert stats.stopped_by == "max_jobs"
            for job in jobs:
                assert client.wait(job["id"], timeout=10)["status"] == "done"
        finally:
            service.stop()
            warehouse.close()

    def test_worker_runs_a_pack_workload_carried_by_the_job(self, tmp_path):
        # The worker is given no packs: the job dict carries the
        # workload spec, and the machine travels as a pack path.
        from repro.scenarios import bundled_pack_paths, find_pack
        from repro.scenarios.schema import workload_to_dict

        [deep] = [
            spec
            for spec in find_pack("stress").workloads
            if spec.name == "stress.deep"
        ]
        service, store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            submitted = client.submit_campaign(
                spec={
                    "benchmarks": [workload_to_dict(deep)],
                    "scale": 0.01,
                    "machine_files": [str(bundled_pack_paths()["embedded"])],
                }
            )
            worker = FleetWorker(
                client, worker_id="w1", ttl=30, poll=0.05, max_jobs=1
            )
            assert worker.run().completed == 1
            finished = client.wait(submitted["id"], timeout=60)
            assert finished["status"] == "done"
            [key] = store.keys()
            payload = store.get(key)
            assert payload["status"] == "ok"
            assert payload["job"]["workload"] == workload_to_dict(deep)
            assert payload["evaluation"]["benchmark"] == "stress.deep"
        finally:
            service.stop()
            warehouse.close()

    def test_stop_finishes_current_lease_before_exit(self, tmp_path):
        # Graceful shutdown path 1: SIGINT's request_stop completes the
        # in-flight job rather than dropping it.
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            started = threading.Event()

            def slow_execute(job_data):
                started.set()
                time.sleep(0.5)
                return ok_payload(job_data)

            worker = FleetWorker(
                client,
                worker_id="w1",
                ttl=10,
                poll=0.05,
                execute=slow_execute,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            [job] = self.submit_jobs(client)
            assert started.wait(10)
            worker.request_stop()  # mid-execution
            thread.join(15)
            assert not thread.is_alive()
            assert worker.stats.completed == 1
            assert worker.stats.released == 0
            assert client.wait(job["id"], timeout=10)["status"] == "done"
        finally:
            service.stop()
            warehouse.close()

    def test_abort_releases_lease_for_other_workers(self, tmp_path):
        # Graceful shutdown path 2: a second signal releases the lease
        # so the job is immediately stealable, not stuck until expiry.
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            started = threading.Event()

            def stuck_execute(job_data):
                started.set()
                time.sleep(30)
                return ok_payload(job_data)

            worker = FleetWorker(
                client,
                worker_id="w1",
                ttl=30,
                poll=0.05,
                execute=stuck_execute,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            [job] = self.submit_jobs(client)
            assert started.wait(10)
            worker.request_abort()
            thread.join(15)
            assert not thread.is_alive()
            assert worker.stats.released == 1
            # The released job is pending again; a second worker takes it.
            rescuer = FleetWorker(
                client,
                worker_id="w2",
                ttl=10,
                poll=0.05,
                execute=instant_execute,
                max_jobs=1,
            )
            stats = rescuer.run()
            assert stats.completed == 1
            assert client.wait(job["id"], timeout=10)["status"] == "done"
        finally:
            service.stop()
            warehouse.close()

    def test_worker_exits_when_service_drains(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            client.fleet_drain()
            worker = FleetWorker(
                client,
                worker_id="w1",
                ttl=10,
                poll=0.05,
                execute=instant_execute,
            )
            stats = worker.run()
            assert stats.stopped_by == "drain"
            assert stats.leased == 0
        finally:
            service.stop()
            warehouse.close()


# ----------------------------------------------------------------------
class TestFleetEquivalence:
    def test_n_workers_match_single_pool_byte_identical(self, tmp_path):
        # The property the fleet must preserve: a shuffled grid computed
        # by 3 concurrent workers over HTTP produces byte-identical
        # evaluations to the plain single-pool campaign path.
        spec = CampaignSpec(
            benchmarks=("171.swim", "172.mgrid"),
            scale=0.02,
            buses_grid=(1, 2),
        )
        jobs = list(spec.expand())
        random.Random(7).shuffle(jobs)

        reference_store = ResultStore(tmp_path / "reference")
        reference = {
            result.key: result
            for result in run_campaign(jobs, store=reference_store)
        }

        service, store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            workers = [
                FleetWorker(
                    client,
                    worker_id=f"w{index}",
                    ttl=30,
                    poll=0.02,
                )
                for index in range(3)
            ]
            threads = [
                threading.Thread(target=worker.run, daemon=True)
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            submitted = client.submit_campaign(
                spec={
                    "benchmarks": list(spec.benchmarks),
                    "scale": spec.scale,
                    "buses_grid": list(spec.buses_grid),
                }
            )
            finished = client.wait(submitted["id"], timeout=300)
            assert finished["status"] == "done"
            for worker in workers:
                worker.request_stop()
            for thread in threads:
                thread.join(15)
            total = sum(worker.stats.completed for worker in workers)
            assert total == len(jobs)  # every point computed by the fleet
            # Byte-identical evaluations, point by point.
            assert set(store.keys()) == set(reference)
            for key, result in reference.items():
                fleet_payload = store.get(key)
                assert canonical_json(
                    fleet_payload["evaluation"]
                ) == canonical_json(result.evaluation.to_dict()), key
        finally:
            service.stop()
            warehouse.close()


class TestBenchSleep:
    def test_sleep_runner_returns_an_ok_payload(self):
        job = {"benchmark": "171.swim"}
        payload = sleep_runner(0.0)(job)
        assert payload["status"] == "ok"
        assert payload["job"] is job
        assert payload["error"] is None
        # JobManager's thread runner passes a loop dir it ignores.
        assert sleep_runner(0.0)(job, "/nonexistent") == payload

    def test_smoke_scaling_bar(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "tools"))
        from fleet_smoke import check_scaling

        two, four = check_scaling({1: 8.1, 2: 4.1, 4: 2.1})
        assert two == pytest.approx(8.1 / 4.1)
        assert four == pytest.approx(8.1 / 2.1)
        with pytest.raises(RuntimeError, match="fleet scaling below the bar"):
            check_scaling({1: 8.0, 2: 5.0, 4: 3.0})

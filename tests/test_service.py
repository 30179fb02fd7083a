"""Tests for the async evaluation service (repro.service)."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import ExperimentJob, ResultStore, execute_job_payload
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    start_in_thread,
)
from repro.warehouse import Warehouse

from test_warehouse import make_payload


class CountingRunner:
    """A stand-in for ``execute_job_payload`` that counts invocations.

    Thread-safe (it runs on executor threads) and slow enough (``delay``)
    that concurrent submissions genuinely overlap in flight.
    """

    def __init__(self, delay=0.0, fail=False):
        self.delay = delay
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job_data, loop_dir=None):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        job = ExperimentJob.from_dict(job_data)
        if self.fail:
            return {
                "schema": 1,
                "job": job_data,
                "status": "error",
                "elapsed_s": self.delay,
                "evaluation": None,
                "error": "synthetic failure",
            }
        _job, payload = make_payload(
            benchmark=job.benchmark,
            scale=job.scale,
            options=job.options,
        )
        return dict(payload, elapsed_s=self.delay)


def make_manager(runner, store=None, warehouse=None, threads=8):
    return JobManager(
        store=store,
        warehouse=warehouse,
        run_payload=runner,
        max_workers=threads,
    )


def run_async(coroutine_factory):
    """Run an async test body on a fresh loop."""
    return asyncio.run(coroutine_factory())


class TestJobManagerDedup:
    def test_64_concurrent_identical_evaluates_compute_once(self):
        # The acceptance bar: >= 64 concurrent identical requests, one
        # underlying computation, verified by executor-invocation count.
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            jobs = [
                manager.submit_evaluate(
                    {"benchmark": "171.swim", "scale": 0.01}
                )
                for _ in range(64)
            ]
            assert len({job.id for job in jobs}) == 1
            finished = await manager.wait(jobs[0].id, timeout=30)
            assert finished.status == "done"
            assert finished.submissions == 64
            assert manager.stats["submitted"] == 64
            assert manager.stats["deduped"] == 63
            assert manager.stats["computed"] == 1
            await manager.close()

        run_async(body)
        assert runner.calls == 1

    def test_distinct_requests_share_overlapping_points(self):
        # An evaluate and a suite covering the same point: the point
        # computes once (experiment-level dedup, not just request-level).
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            single = manager.submit_evaluate(
                {"benchmark": "171.swim", "scale": 0.01}
            )
            suite = manager.submit_suite({"scale": 0.01})
            await manager.wait(single.id, timeout=30)
            finished = await manager.wait(suite.id, timeout=60)
            assert finished.status == "done"
            assert finished.result["summary"]["points"] == 10
            await manager.close()

        run_async(body)
        assert runner.calls == 10  # not 11: the swim point was shared

    def test_completed_jobs_dedupe_later_submissions(self):
        runner = CountingRunner()

        async def body():
            manager = make_manager(runner)
            request = {"benchmark": "171.swim", "scale": 0.01}
            first = manager.submit_evaluate(request)
            await manager.wait(first.id, timeout=30)
            again = manager.submit_evaluate(request)
            assert again is manager.job(first.id)
            assert again.submissions == 2
            await manager.close()

        run_async(body)
        assert runner.calls == 1

    def test_store_answers_across_manager_lifetimes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        runner = CountingRunner()

        async def first():
            manager = make_manager(runner, store=store)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            await manager.wait(job.id, timeout=30)
            await manager.close()

        async def second():
            manager = make_manager(runner, store=store)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "done"
            assert manager.stats["store_hits"] == 1
            await manager.close()

        run_async(first)
        run_async(second)
        assert runner.calls == 1  # the second service run hit the store

    def test_failed_jobs_are_not_cached(self):
        runner = CountingRunner(fail=True)

        async def body():
            manager = make_manager(runner)
            request = {"benchmark": "171.swim", "scale": 0.01}
            job = manager.submit_evaluate(request)
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "failed"
            assert "synthetic failure" in finished.error
            runner.fail = False
            retry = manager.submit_evaluate(request)
            assert retry is not finished  # fresh record, not the failure
            finished_retry = await manager.wait(retry.id, timeout=30)
            assert finished_retry.status == "done"
            await manager.close()

        run_async(body)
        assert runner.calls == 2


class TestJobManagerEvents:
    def test_events_replay_then_stream(self):
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            queue = job.subscribe()
            names = []
            while True:
                record = await asyncio.wait_for(queue.get(), timeout=30)
                if record is None:
                    break
                names.append(record["event"])
            assert names == ["submitted", "started", "completed"]
            # late subscription replays the full history
            late = job.subscribe()
            replay = []
            while True:
                record = late.get_nowait()
                if record is None:
                    break
                replay.append(record["event"])
            assert replay == names
            await manager.close()

        run_async(body)

    def test_campaign_emits_progress_per_point(self):
        runner = CountingRunner()

        async def body():
            manager = make_manager(runner)
            job = manager.submit_campaign(
                {
                    "benchmarks": ["171.swim", "172.mgrid"],
                    "scale": 0.01,
                    "buses_grid": [1, 2],
                }
            )
            finished = await manager.wait(job.id, timeout=60)
            assert finished.status == "done"
            progress = [e for e in finished.events if e["event"] == "progress"]
            assert len(progress) == 4
            assert progress[-1]["completed"] == 4
            assert finished.result["summary"]["points"] == 4
            assert "mean_ed2_ratio" in finished.result["summary"]
            await manager.close()

        run_async(body)

    def test_same_campaign_under_new_label_records_both(self, tmp_path):
        # Resubmitting a grid under a fresh label must not dedup the
        # label away: every point answers from the store, but the new
        # campaign still lands in the warehouse (enabling label-vs-label
        # diffs of identical grids).
        runner = CountingRunner()
        store = ResultStore(tmp_path / "cache")
        warehouse = Warehouse()

        async def body():
            manager = make_manager(runner, store=store, warehouse=warehouse)
            request = {
                "benchmarks": ["171.swim"],
                "scale": 0.01,
            }
            first = manager.submit_campaign(dict(request, label="a"))
            await manager.wait(first.id, timeout=30)
            second = manager.submit_campaign(dict(request, label="b"))
            assert second.id != first.id
            await manager.wait(second.id, timeout=30)
            assert manager.stats["store_hits"] == 1  # no recompute
            await manager.close()

        run_async(body)
        assert runner.calls == 1
        assert [c["label"] for c in warehouse.campaigns()] == ["a", "b"]
        warehouse.close()

    def test_campaign_records_warehouse_campaign(self, tmp_path):
        runner = CountingRunner()
        store = ResultStore(tmp_path / "cache")
        warehouse = Warehouse()

        async def body():
            manager = make_manager(runner, store=store, warehouse=warehouse)
            job = manager.submit_campaign(
                {
                    "benchmarks": ["171.swim"],
                    "scale": 0.01,
                    "label": "my-campaign",
                }
            )
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "done"
            assert finished.result["campaign"] == "my-campaign"
            await manager.close()

        run_async(body)
        (campaign,) = warehouse.campaigns()
        assert campaign["label"] == "my-campaign"
        assert campaign["n_jobs"] == 1
        warehouse.close()


class TestRequestValidation:
    def test_evaluate_needs_benchmark(self):
        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(ServiceError):
                manager.submit_evaluate({"scale": 0.01})
            await manager.close()

        run_async(body)

    def test_machine_names_rejected(self):
        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(ServiceError, match="machine_file"):
                manager.submit_evaluate(
                    {"benchmark": "171.swim", "machine": "warp9"}
                )
            await manager.close()

        run_async(body)

    def test_canonical_options_naming_a_machine_rejected(self):
        from repro.pipeline import ExperimentOptions

        options = dict(ExperimentOptions().to_dict(), machine="warp9")

        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(ServiceError, match="machine_file"):
                manager.submit_evaluate(
                    {"benchmark": "171.swim", "options": options}
                )
            await manager.close()

        run_async(body)

    def test_unknown_campaign_grid_rejected(self):
        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(ServiceError, match="unknown campaign grid"):
                manager.submit_campaign(
                    {"benchmarks": ["171.swim"], "machines_grid": ["warp9"]}
                )
            await manager.close()

        run_async(body)

    def test_unknown_benchmark_rejected(self):
        from repro.errors import WorkloadError

        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(WorkloadError):
                manager.submit_evaluate({"benchmark": "183.equake"})
            await manager.close()

        run_async(body)


@pytest.fixture(scope="class")
def service():
    """A live service (threads, counting runner, warehouse) + client."""
    runner = CountingRunner(delay=0.05)
    store = {"runner": runner}

    def factory():
        manager = make_manager(runner, warehouse=Warehouse())
        store["manager"] = manager
        return manager

    with start_in_thread(factory) as handle:
        client = ServiceClient(host=handle.host, port=handle.port, timeout=30)
        yield client, store


@pytest.mark.usefixtures("service")
class TestHttpService:
    def test_health_and_stats(self, service):
        client, _ = service
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert "jobs" in stats and "warehouse" in stats

    def test_evaluate_over_http_dedupes_64_concurrent(self, service):
        client, state = service
        before = state["runner"].calls
        request = {"benchmark": "172.mgrid", "scale": 0.013}
        with ThreadPoolExecutor(max_workers=64) as pool:
            ids = list(
                pool.map(
                    lambda _: client.submit_evaluate(**request)["id"],
                    range(64),
                )
            )
        assert len(set(ids)) == 1
        job = client.wait(ids[0], timeout=60)
        assert job["status"] == "done"
        assert job["submissions"] == 64
        assert state["runner"].calls == before + 1
        result = client.result(ids[0])["result"]
        assert result["summary"]["ed2_ratio"] == pytest.approx(
            0.8 * 1.1**2
        )

    def test_event_stream_over_http(self, service):
        client, _ = service
        job = client.submit_evaluate(benchmark="173.applu", scale=0.017)
        events = [record["event"] for record in client.events(job["id"])]
        assert events[0] == "submitted"
        assert events[-1] == "completed"

    def test_jobs_listing(self, service):
        client, _ = service
        job = client.submit_evaluate(benchmark="171.swim", scale=0.019)
        client.wait(job["id"], timeout=30)
        assert job["id"] in {j["id"] for j in client.jobs()}

    def test_query_endpoints(self, service):
        client, _ = service
        job = client.submit_evaluate(benchmark="171.swim", scale=0.023)
        client.wait(job["id"], timeout=30)
        best = client.query_best()
        assert any(row["benchmark"] == "171.swim" for row in best)
        assert client.query_pareto()
        assert client.query_campaigns() == []

    def test_metrics_scrape(self, service):
        client, _ = service
        request = {"benchmark": "178.galgel", "scale": 0.029}
        job = client.submit_evaluate(**request)
        client.wait(job["id"], timeout=30)
        duplicate = client.submit_evaluate(**request)
        assert duplicate["id"] == job["id"]
        text = client.metrics()
        assert "# TYPE repro_service_requests_total counter" in text
        assert 'endpoint="/v1/evaluate"' in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_request_seconds_bucket{endpoint=' in text
        assert "repro_service_dedup_hits_total" in text
        assert "repro_service_jobs_total" in text

    def test_metrics_content_type(self, service):
        client, _ = service
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            response.read()
        finally:
            connection.close()

    def test_query_spans_endpoint(self, service):
        client, _ = service
        # The counting runner returns no trace, so the span table is
        # empty — but the endpoint must round-trip cleanly.
        assert client.query_spans() == []

    def test_http_errors(self, service):
        client, _ = service
        status, document = client.request("GET", "/v1/jobs/ffffffffffffffff")
        assert status == 404
        assert document["error"]["code"] == "not_found"
        assert "no such job" in document["error"]["message"]
        status, document = client.request("PUT", "/v1/evaluate")
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"
        status, document = client.request("POST", "/v1/evaluate", body={})
        assert status == 400
        assert document["error"]["code"] == "bad_request"
        for path, body in (
            ("/v1/evaluate", {"benchmark": "171.swim", "machine": "warp9"}),
            ("/v1/suite", {"machine": "warp9"}),
            ("/v1/campaign", {"benchmarks": ["171.swim"], "machines_grid": []}),
        ):
            status, document = client.request("POST", path, body=body)
            assert status == 400, path
            assert "machine_file" in document["error"]["message"]
        status, document = client.request("GET", "/nope")
        assert status == 404
        assert document["error"]["code"] == "not_found"

    def test_malformed_json_body(self, service):
        client, _ = service
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            document = json_module.loads(response.read())
            assert document["error"]["code"] == "bad_request"
            assert "not valid JSON" in document["error"]["message"]
        finally:
            connection.close()

    def test_oversized_body_rejected(self, service):
        client, _ = service
        import http.client
        import json as json_module

        from repro.service.http import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            # Declare an oversized body without uploading it: the
            # server must refuse from the Content-Length alone.
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            document = json_module.loads(response.read())
            assert document["error"]["code"] == "payload_too_large"
        finally:
            connection.close()


class TestRealPipelineOverHttp:
    def test_real_evaluate_and_warehouse_sync(self, tmp_path):
        # One genuinely computed experiment through the whole stack:
        # HTTP -> manager -> executor -> store -> warehouse -> query.
        def factory():
            store = ResultStore(tmp_path / "cache")
            return JobManager(
                store=store,
                warehouse=Warehouse.for_store(store),
                run_payload=execute_job_payload,
                max_workers=2,
            )

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=60
            )
            job = client.submit_evaluate(benchmark="171.swim", scale=0.01)
            finished = client.wait(job["id"], timeout=300)
            assert finished["status"] == "done"
            summary = client.result(job["id"])["result"]["summary"]
            assert 0 < summary["ed2_ratio"] < 2
            (best,) = client.query_best()
            assert best["key"] == job["id"]
        # The store entry and warehouse row both survive the service.
        store = ResultStore(tmp_path / "cache")
        assert job["id"] in store
        with Warehouse(tmp_path / "cache" / "warehouse.sqlite") as warehouse:
            assert warehouse.job_count() == 1


def _exit_on_mgrid(job_data, loop_dir=None, traced=False):
    """Kills the child process on 172.mgrid; runs every other job."""
    import os

    if job_data["benchmark"] == "172.mgrid":
        os._exit(1)
    return execute_job_payload(job_data, loop_dir)


class TestLocalProcessWorkers:
    """The default runner: every local slot owns a child process."""

    def test_next_evaluate_completes_after_a_child_dies(
        self, tmp_path, monkeypatch
    ):
        # The child's entry point pickles by reference: the forkserver
        # child imports this module's stub.
        import repro.fleet.local as local

        monkeypatch.setattr(local, "_execute_in_child", _exit_on_mgrid)

        async def body():
            manager = JobManager(store=ResultStore(tmp_path), max_workers=1)
            try:
                killer = manager.submit_evaluate(
                    {"benchmark": "172.mgrid", "scale": 0.01}
                )
                killer = await manager.wait(killer.id, timeout=120)
                assert killer.status == "failed"
                assert "worker died" in killer.error
                # The slot respawned its child: later jobs compute.
                for benchmark in ("171.swim", "173.applu"):
                    job = manager.submit_evaluate(
                        {"benchmark": benchmark, "scale": 0.01}
                    )
                    job = await manager.wait(job.id, timeout=300)
                    assert job.status == "done", job.error
            finally:
                await manager.close()

        run_async(body)

    def test_traced_job_carries_the_worker_span_tree(self, tmp_path):
        from repro.telemetry import Span

        def factory():
            return JobManager(store=ResultStore(tmp_path), max_workers=1)

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=60
            )
            job = client.submit_evaluate(benchmark="171.swim", scale=0.01)
            assert client.wait(job["id"], timeout=300)["status"] == "done"
            tree = client.timeline(job["id"])["tree"]
        [experiment] = [
            child for child in tree["children"] if child["name"] == "experiment"
        ]
        [lease] = [
            child for child in experiment["children"] if child["name"] == "lease"
        ]
        assert lease["attributes"]["worker"] == "local"
        assert lease["attributes"]["outcome"] == "completed"
        [worker_tree] = lease.get("children", [])
        assert worker_tree["name"] == "job"
        names = {span.name for span in Span.from_dict(worker_tree).walk()}
        assert {"profile", "schedule"} <= names


class TestServeCLI:
    def test_version_flag(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_serve_help_mentions_runner(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--runner" in capsys.readouterr().out

"""Tests for the campaign subsystem: jobs, specs, store, executor,
aggregation, and the CLI verb."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.campaign import (
    CampaignSpec,
    ExperimentJob,
    ResultStore,
    StoreError,
    best_rows,
    config_means,
    execute_job_payload,
    load_results,
    pareto_frontier,
    ratio_rows,
    run_campaign,
)
from repro.campaign.executor import JobResult
from repro.errors import WorkloadError
from repro.pipeline import ExperimentOptions
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.pipeline.serialization import canonical_json
from repro.power.breakdown import EnergyBreakdown
from repro.scheduler.options import SchedulerOptions


def _job(**kwargs) -> ExperimentJob:
    defaults = dict(benchmark="171.swim", scale=0.02, options=ExperimentOptions())
    defaults.update(kwargs)
    return ExperimentJob(**defaults)


class TestJobKeys:
    def test_same_spec_same_key(self):
        assert _job().key() == _job().key()

    def test_key_is_stable_across_dict_round_trip(self):
        job = _job()
        assert ExperimentJob.from_dict(job.to_dict()).key() == job.key()

    @pytest.mark.parametrize(
        "change",
        [
            dict(benchmark="172.mgrid"),
            dict(scale=0.03),
            dict(options=ExperimentOptions(n_buses=2)),
            dict(options=ExperimentOptions(per_class_energy=False)),
            dict(
                options=ExperimentOptions(
                    scheduler=SchedulerOptions(preplace_recurrences=False)
                )
            ),
            dict(
                options=ExperimentOptions(
                    breakdown=EnergyBreakdown.paper_baseline().with_shares(
                        0.2, 0.3
                    )
                )
            ),
        ],
    )
    def test_any_option_change_changes_key(self, change):
        assert _job(**change).key() != _job().key()

    def test_canonical_json_is_sorted_and_compact(self):
        text = _job().canonical_json()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":"))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            _job(benchmark="183.equake")

    def test_config_label_flags_ablations(self):
        options = ExperimentOptions(
            n_buses=2, scheduler=SchedulerOptions(ed2_refinement=False)
        )
        label = _job(options=options).config_label()
        assert label == "buses=2,no-ed2-refinement"


class TestCampaignSpec:
    def test_expand_is_benchmarks_times_configs(self):
        spec = CampaignSpec(
            benchmarks=("171.swim", "172.mgrid"),
            buses_grid=(1, 2),
            preplace_grid=(True, False),
        )
        jobs = spec.expand()
        assert len(jobs) == len(spec) == 2 * 4
        assert len({job.key() for job in jobs}) == len(jobs)

    def test_duplicate_grid_values_collapse(self):
        spec = CampaignSpec(benchmarks=("171.swim",), buses_grid=(1, 1, 2))
        assert len(spec.expand()) == 2

    def test_round_trips_through_dict(self):
        spec = CampaignSpec(
            benchmarks=("171.swim",),
            scale=0.03,
            buses_grid=(2,),
            sync_penalties_grid=(True, False),
        )
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert [job.key() for job in rebuilt.expand()] == [
            job.key() for job in spec.expand()
        ]

    def test_rejects_unknown_benchmark_and_empty_grid(self):
        with pytest.raises(WorkloadError):
            CampaignSpec(benchmarks=("quake",))
        with pytest.raises(WorkloadError):
            CampaignSpec(benchmarks=("171.swim",), buses_grid=())


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        payload = {"status": "ok", "value": [1, 2, 3]}
        path = store.save("abc123", payload)
        assert path.exists()
        assert "abc123" in store
        assert store.load("abc123") == payload

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert "nope" not in store
        assert store.get("nope") is None
        with pytest.raises(StoreError):
            store.load("nope")

    def test_corrupt_entry_is_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path("bad1").write_text("{truncated")
        assert store.get("bad1") is None
        with pytest.raises(StoreError):
            store.load("bad1")

    def test_keys_and_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k2", {"a": 1})
        store.save("k1", {"a": 2})
        assert list(store.keys()) == ["k1", "k2"]
        assert len(store) == 2
        assert store.delete("k1")
        assert not store.delete("k1")
        assert list(store.keys()) == ["k2"]


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    """A store populated by one small two-benchmark, two-config campaign."""
    store = ResultStore(tmp_path_factory.mktemp("campaign") / "cache")
    spec = CampaignSpec(
        benchmarks=("171.swim", "172.mgrid"),
        scale=0.02,
        buses_grid=(1, 2),
    )
    outcome = run_campaign(spec.expand(), store=store, n_jobs=1)
    return store, spec, outcome


class TestRunCampaign:
    def test_first_run_computes_everything(self, campaign_store):
        store, spec, outcome = campaign_store
        assert len(outcome) == 4
        assert outcome.n_cached == 0
        assert not outcome.failed
        assert all(result.ok for result in outcome)
        assert all(result.elapsed_s > 0 for result in outcome)
        assert len(store) == 4

    def test_second_run_hits_cache_and_agrees(self, campaign_store):
        store, spec, outcome = campaign_store
        rerun = run_campaign(spec.expand(), store=store, n_jobs=1)
        assert rerun.n_cached == len(rerun) == 4
        assert rerun.total_elapsed_s == 0.0
        for first, second in zip(outcome, rerun):
            assert second.cached
            assert second.key == first.key
            assert second.evaluation.ed2_ratio == first.evaluation.ed2_ratio

    def test_recompute_ignores_cache(self, campaign_store):
        store, spec, _ = campaign_store
        jobs = spec.expand()[:1]
        rerun = run_campaign(jobs, store=store, recompute=True)
        assert rerun.n_cached == 0
        assert rerun.results[0].ok

    def test_failures_are_captured_not_cached(self, tmp_path, monkeypatch):
        import repro.pipeline.experiment as experiment

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(experiment, "evaluate_corpus", boom)
        store = ResultStore(tmp_path)
        outcome = run_campaign([_job()], store=store, n_jobs=1)
        assert len(outcome.failed) == 1
        assert "injected failure" in outcome.failed[0].error
        assert outcome.failed[0].evaluation is None
        assert len(store) == 0

    def test_worker_payload_is_json_safe(self):
        payload = execute_job_payload(_job().to_dict())
        assert payload["status"] == "ok"
        json.dumps(payload)  # must not raise

    def test_parallel_execution_matches_inline(self, campaign_store, tmp_path):
        store, spec, outcome = campaign_store
        parallel_store = ResultStore(tmp_path)
        rerun = run_campaign(spec.expand()[:2], store=parallel_store, n_jobs=2)
        assert not rerun.failed and rerun.n_cached == 0
        by_key = {r.key: r for r in outcome}
        for result in rerun:
            assert (
                result.evaluation.ed2_ratio
                == by_key[result.key].evaluation.ed2_ratio
            )

    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            run_campaign([], n_jobs=0)

    def test_duplicate_jobs_run_once(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor

        calls = []
        real = executor.execute_job_payload

        def counting(job_data, loop_dir=None):
            calls.append(job_data["benchmark"])
            return real(job_data)

        monkeypatch.setattr(executor, "execute_job_payload", counting)
        job = _job()
        outcome = run_campaign([job, job], store=ResultStore(tmp_path))
        assert len(calls) == 1
        assert len(outcome) == 2  # one result per input occurrence
        assert outcome.results[0].key == outcome.results[1].key

    def test_stale_cache_entry_recomputed_not_fatal(self, campaign_store, tmp_path):
        store, spec, _ = campaign_store
        jobs = spec.expand()[:1]
        key = jobs[0].key()
        stale = ResultStore(tmp_path)
        # Pretend an older version cached an incompatible evaluation.
        stale.save(key, {"status": "ok", "job": jobs[0].to_dict(),
                         "evaluation": {"benchmark": "171.swim"}})
        outcome = run_campaign(jobs, store=stale)
        assert outcome.n_cached == 0
        assert outcome.results[0].ok


class TestCampaignLoopReuse:
    """Below the whole-job store, executed jobs reuse per-loop artifacts."""

    @pytest.fixture(autouse=True)
    def _fresh_loop_cache(self):
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        yield
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)

    def test_resume_reschedules_zero_loops(self, tmp_path):
        from repro.reporting import campaign_summary

        spec = CampaignSpec(benchmarks=("171.swim",), scale=0.02)
        store = ResultStore(tmp_path / "cache")
        first = run_campaign(spec.expand(), store=store).results[0]
        lookups = first.loop_cache["misses"]
        assert lookups > 0 and first.loop_cache["hits"] == 0
        assert len(list(store.loop_keys())) == lookups

        # Invalidate the measurements: drop every whole-job entry.
        for key in list(store.keys()):
            store.delete(key)
        # Simulate a fresh process: no in-memory memo, no attached store.
        clear_loop_cache(reset_stats=True)
        LOOP_CACHE.detach_store()

        resumed = run_campaign(spec.expand(), store=store)
        result = resumed.results[0]
        assert not result.cached  # the job itself had to re-run...
        assert result.loop_cache["misses"] == 0  # ...but no loop did
        assert result.loop_cache["disk_hits"] == lookups
        assert canonical_json(result.evaluation.to_dict()) == canonical_json(
            first.evaluation.to_dict()
        )
        assert f"{lookups} loop-cache hit(s)" in campaign_summary(resumed)

    def test_whole_job_hit_skips_execution_entirely(self, tmp_path):
        spec = CampaignSpec(benchmarks=("171.swim",), scale=0.02)
        store = ResultStore(tmp_path / "cache")
        run_campaign(spec.expand(), store=store)
        rerun = run_campaign(spec.expand(), store=store)
        assert rerun.n_cached == 1
        assert rerun.results[0].loop_cache is None
        assert rerun.loop_cache_hits == 0

    def test_disk_layer_detached_after_inline_campaign(self, tmp_path):
        # The campaign must not leak its disk layer into later pipeline
        # runs in the same process (the store may be a temp directory).
        from repro.pipeline import evaluate_corpus
        from repro.workloads import build_corpus, spec_profile

        run_campaign([_job()], store=ResultStore(tmp_path / "cache"))
        assert LOOP_CACHE.store_dir is None
        clear_loop_cache(reset_stats=True)
        evaluate_corpus(build_corpus(spec_profile("swim"), scale=0.02))
        assert list((tmp_path / "cache" / "loops").glob("*.json"))  # old
        assert LOOP_CACHE.stats()["disk_hits"] == 0  # but unused now

    def test_no_store_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcome = run_campaign([_job()], store=None)
        assert outcome.results[0].ok
        assert LOOP_CACHE.store_dir is None
        assert list(tmp_path.iterdir()) == []


class TestStoresFromBeforeLoopOnlyCaching:
    """Cache directories written while a stage cache existed still work."""

    def test_leftover_stage_tier_and_payload_field_are_ignored(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.executor as executor

        spec = CampaignSpec(benchmarks=("171.swim", "172.mgrid"), scale=0.02)
        store = ResultStore(tmp_path / "cache")
        first = run_campaign(spec.expand(), store=store)
        keys = sorted(result.key for result in first)
        # What an older build left behind: a stages/ tier of corpus-level
        # artifacts and whole-job payloads carrying their counters.
        stages = store.root / "stages"
        stages.mkdir()
        (stages / "profile-0123456789abcdef01234567.json").write_text(
            json.dumps({"schema": 1, "data": {}})
        )
        for key in keys:
            payload = store.load(key)
            payload["stage_cache"] = {"hits": 0, "misses": 4, "disk_hits": 0}
            store.save(key, payload)

        calls = []
        monkeypatch.setattr(
            executor, "execute_job_payload", lambda *a: calls.append(a)
        )
        rerun = run_campaign(spec.expand(), store=store)
        assert rerun.n_cached == len(rerun) == len(keys)
        assert calls == []  # nothing recomputed
        assert [r.evaluation.to_dict() for r in rerun] == [
            r.evaluation.to_dict() for r in first
        ]
        assert sorted(store.keys()) == keys
        assert len(store) == len(keys)
        assert sorted(entry["key"] for entry in store.entries()) == keys


class TestStoresFromBeforeAnalyticMetering:
    """Stores whose job options still carry the removed simulate flag."""

    @pytest.fixture(autouse=True)
    def _fresh_loop_cache(self):
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        yield
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)

    def test_simulate_flag_payloads_load_and_recompute_from_loops(
        self, tmp_path
    ):
        from repro.campaign.job import KEY_LENGTH
        from repro.pipeline.serialization import content_key
        from repro.warehouse import Warehouse

        spec = CampaignSpec(benchmarks=("171.swim",), scale=0.02)
        store = ResultStore(tmp_path / "cache")
        (first,) = run_campaign(spec.expand(), store=store)
        reference = canonical_json(first.evaluation.to_dict())
        # Rewrite the entry the way an older build stored it: the flag
        # in the job options, and the key hashed over it.
        payload = store.load(first.key)
        store.delete(first.key)
        legacy_keys = []
        for simulate in (True, False):
            legacy = json.loads(json.dumps(payload))
            legacy["job"]["options"]["simulate"] = simulate
            legacy["key"] = content_key(legacy["job"], length=KEY_LENGTH)
            store.save(legacy["key"], legacy)
            legacy_keys.append(legacy["key"])
        assert first.key not in legacy_keys

        assert sorted(store.keys()) == sorted(legacy_keys)
        loaded = load_results(store)
        assert sorted(result.key for result in loaded) == sorted(legacy_keys)
        for result in loaded:
            assert canonical_json(result.evaluation.to_dict()) == reference
        with Warehouse.for_store(store) as warehouse:
            assert warehouse.ingest_store(store).added == 2

        # A fresh process: no in-memory loop artifacts, the loops/ layer
        # on disk.  The job misses under its new key but schedules nothing.
        clear_loop_cache(reset_stats=True)
        rerun = run_campaign(spec.expand(), store=store)
        (again,) = rerun
        assert not again.cached
        assert again.key == first.key
        assert rerun.loop_cache_misses == 0
        assert rerun.loop_cache_disk_hits > 0
        assert canonical_json(again.evaluation.to_dict()) == reference


def _exit_worker(job_data, loop_dir=None, traced=False):
    """Simulates a worker killed by the OS (picklable module-level fn)."""
    import os

    os._exit(1)


def _exit_on_mgrid_two_buses(job_data, loop_dir=None, traced=False):
    """Kills its worker on exactly one job of a grid; runs the rest."""
    import os

    job = ExperimentJob.from_dict(job_data)
    if job.benchmark == "172.mgrid" and job.options.n_buses == 2:
        os._exit(1)
    return execute_job_payload(job_data, loop_dir)


class TestWorkerDeath:
    def test_dead_worker_recorded_as_failure_not_crash(
        self, tmp_path, monkeypatch
    ):
        # Stands in for the child's entry point, which pickles by
        # reference: the forkserver child imports this module's stub.
        import repro.fleet.local as local

        monkeypatch.setattr(local, "_execute_in_child", _exit_worker)
        jobs = [_job(), _job(benchmark="172.mgrid")]
        store = ResultStore(tmp_path)
        outcome = run_campaign(jobs, store=store, n_jobs=2)
        assert len(outcome.failed) == 2
        assert all("worker died" in r.error for r in outcome.failed)
        assert len(store) == 0

    def test_one_dead_worker_fails_only_its_own_job(
        self, tmp_path, monkeypatch
    ):
        # A broken shared pool used to fail every job of the campaign;
        # a dead child must cost only the job it was running.
        import repro.fleet.local as local

        monkeypatch.setattr(local, "_execute_in_child", _exit_on_mgrid_two_buses)
        jobs = CampaignSpec(
            benchmarks=("171.swim", "172.mgrid", "173.applu"),
            scale=0.02,
            buses_grid=(1, 2),
        ).expand()
        assert len(jobs) == 6
        store = ResultStore(tmp_path)
        outcome = run_campaign(jobs, store=store, n_jobs=2)
        [failed] = outcome.failed
        assert failed.job.benchmark == "172.mgrid"
        assert failed.job.options.n_buses == 2
        assert "worker died" in failed.error
        assert len(outcome.succeeded) == 5
        assert sorted(store.keys()) == sorted(r.key for r in outcome.succeeded)


class TestProfileMemoIsolation:
    def test_caller_mutation_does_not_poison_memo(self):
        from repro.pipeline import evaluate_corpus
        from repro.workloads import build_corpus, spec_profile

        corpus = build_corpus(spec_profile("swim"), scale=0.02)
        first = evaluate_corpus(corpus)
        n_loops = len(first.profile.loops)
        first.profile.loops.pop()  # caller post-processing gone wrong
        second = evaluate_corpus(corpus)
        assert len(second.profile.loops) == n_loops
        assert second.ed2_ratio == first.ed2_ratio


def _fake_result(benchmark, n_buses, ed2, energy, time_r) -> JobResult:
    job = ExperimentJob(
        benchmark=benchmark, scale=0.02, options=ExperimentOptions(n_buses=n_buses)
    )
    evaluation = SimpleNamespace(
        ed2_ratio=ed2, energy_ratio=energy, time_ratio=time_r
    )
    return JobResult(
        job=job,
        key=job.key(),
        status="ok",
        elapsed_s=1.0,
        cached=False,
        evaluation=evaluation,
    )


class TestAggregation:
    def test_config_means(self):
        results = [
            _fake_result("171.swim", 1, 0.9, 0.8, 1.1),
            _fake_result("172.mgrid", 1, 0.7, 0.6, 0.9),
        ]
        means = config_means(ratio_rows(results))
        stats = means["buses=1"]
        assert stats["n_benchmarks"] == 2
        assert stats["mean_ed2_ratio"] == pytest.approx(0.8)
        assert stats["mean_energy_ratio"] == pytest.approx(0.7)

    def test_best_rows(self):
        results = [
            _fake_result("171.swim", 1, 0.9, 0.8, 1.1),
            _fake_result("171.swim", 2, 0.8, 0.9, 1.0),
        ]
        (best,) = best_rows(ratio_rows(results))
        assert (best.benchmark, best.config) == ("171.swim", "buses=2")
        (best,) = best_rows(ratio_rows(results), metric="energy_ratio")
        assert best.config == "buses=1"
        with pytest.raises(ValueError):
            best_rows(ratio_rows(results), metric="speed")

    def test_pareto_frontier_drops_dominated(self):
        results = [
            # buses=1: (0.8 energy, 1.1 time); buses=2: (0.9, 1.0) —
            # neither dominates the other, both on the frontier.
            _fake_result("171.swim", 1, 0.9, 0.8, 1.1),
            _fake_result("171.swim", 2, 0.8, 0.9, 1.0),
        ]
        frontier = pareto_frontier(ratio_rows(results))
        assert [point.config for point in frontier] == ["buses=1", "buses=2"]
        # A strictly worse config disappears.
        results.append(_fake_result("171.swim", 4, 0.95, 0.95, 1.2))
        frontier = pareto_frontier(ratio_rows(results))
        assert all("buses=4" not in point.config for point in frontier)

    def test_load_results_round_trips_store(self, campaign_store):
        store, spec, outcome = campaign_store
        loaded = load_results(store)
        assert len(loaded) == 4
        assert {r.key for r in loaded} == {r.key for r in outcome}
        assert config_means(ratio_rows(loaded)) == config_means(
            ratio_rows(list(outcome))
        )

    def test_load_results_skips_stale_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("deadbeef00000000", {"status": "ok",
                                        "job": {"benchmark": "171.swim"},
                                        "evaluation": {"benchmark": "171.swim"}})
        assert load_results(store) == []

    def test_warehouse_rows_aggregate_like_the_campaign(self, campaign_store):
        # The same store, reported live and queried from the warehouse
        # index, gives bit-identical aggregates.
        from repro.warehouse import Warehouse

        store, _, outcome = campaign_store
        live = ratio_rows(list(outcome))
        with Warehouse() as warehouse:
            warehouse.ingest_store(store)
            indexed = warehouse.job_rows()
        assert len(indexed) == len(live) == 4
        assert config_means(indexed) == config_means(live)
        for metric in ("ed2_ratio", "energy_ratio", "time_ratio"):
            assert [
                (row.benchmark, row.config, getattr(row, metric))
                for row in best_rows(indexed, metric)
            ] == [
                (row.benchmark, row.config, getattr(row, metric))
                for row in best_rows(live, metric)
            ]
        assert pareto_frontier(indexed) == pareto_frontier(live)


class TestCampaignCLI:
    def test_campaign_verb_runs_and_caches(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "campaign",
            "--benchmarks",
            "swim",
            "--scale",
            "0.02",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Campaign results" in first.out
        assert "Pareto frontier" in first.out
        assert "1 cache hit" not in first.err

        assert main(argv) == 0
        second = capsys.readouterr()
        assert "1 cache hit(s)" in second.err
        assert "Campaign results" in second.out

    def test_label_is_filed_in_the_store_and_indexed(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = tmp_path / "cache"
        argv = [
            "campaign",
            "--benchmarks",
            "swim",
            "--scale",
            "0.02",
            "--cache-dir",
            str(cache),
            "--label",
            "nightly",
        ]
        assert main(argv) == 0
        (membership,) = (cache / "campaigns").glob("*.json")
        record = json.loads(membership.read_text())
        assert record["label"] == "nightly"
        assert record["keys"] == list(ResultStore(cache).keys())
        query = ["query", "campaigns", "--cache-dir", str(cache), "--output", "json"]
        capsys.readouterr()
        assert main(query) == 0
        (campaign,) = json.loads(capsys.readouterr().out)["campaigns"]
        assert (campaign["label"], campaign["n_jobs"]) == ("nightly", 1)
        # Deleting the index loses nothing: one ingest restores it.
        (cache / "warehouse.sqlite").unlink()
        assert main(["query", "ingest", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(query) == 0
        assert json.loads(capsys.readouterr().out)["campaigns"] == [campaign]

    def test_report_only_reads_cache(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = str(tmp_path / "cache")
        assert (
            main(
                [
                    "campaign",
                    "--benchmarks",
                    "mgrid",
                    "--scale",
                    "0.02",
                    "--cache-dir",
                    cache,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "--report-only", "--cache-dir", cache]) == 0
        output = capsys.readouterr().out
        assert "172.mgrid" in output

    def test_report_only_empty_cache_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        assert (
            main(["campaign", "--report-only", "--cache-dir", str(tmp_path)])
            == 1
        )

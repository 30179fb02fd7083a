"""Tests for the SQLite results warehouse (repro.warehouse)."""

import json

import pytest

from repro.campaign import ExperimentJob, ResultStore
from repro.pipeline import ExperimentOptions
from repro.warehouse import (
    Warehouse,
    WarehouseError,
    best_points,
    config_means,
    pareto_frontier,
    regression_diff,
)


def make_payload(
    benchmark="171.swim",
    scale=0.01,
    options=None,
    energy_ratio=0.8,
    time_ratio=1.1,
    elapsed_s=0.5,
    loop_cache=None,
):
    """A store payload with exactly the given headline ratios."""
    job = ExperimentJob(
        benchmark=benchmark,
        scale=scale,
        options=options or ExperimentOptions(),
    )
    energy = {
        "cluster_dynamic": 0.0,
        "icn_dynamic": 0.0,
        "cache_dynamic": 0.0,
        "cluster_static": 0.0,
        "icn_static": 0.0,
        "cache_static": 0.0,
    }
    payload = {
        "schema": 1,
        "job": job.to_dict(),
        "key": job.key(),
        "status": "ok",
        "elapsed_s": elapsed_s,
        "evaluation": {
            "heterogeneous_measured": {
                "energy": dict(energy, cluster_dynamic=energy_ratio),
                "exec_time_ns": time_ratio,
            },
            "baseline_measured": {
                "energy": dict(energy, cluster_dynamic=1.0),
                "exec_time_ns": 1.0,
            },
        },
        "error": None,
    }
    if loop_cache is not None:
        payload["loop_cache"] = loop_cache
    return job, payload


def _alt_machine():
    """Options targeting a machine other than the paper's (a pack file)."""
    from repro.scenarios import bundled_pack_paths

    return ExperimentOptions(
        machine_file=str(bundled_pack_paths()["wide-issue"])
    )


def fill_store(root, specs):
    """Write one payload per (benchmark, kwargs) spec; returns the store."""
    store = ResultStore(root)
    for benchmark, kwargs in specs:
        job, payload = make_payload(benchmark=benchmark, **kwargs)
        store.save(job.key(), payload)
    return store


class TestRecordPayload:
    def test_records_ratios_and_identity(self):
        job, payload = make_payload(energy_ratio=0.5, time_ratio=2.0)
        with Warehouse() as warehouse:
            key = warehouse.record_payload(payload)
            assert key == job.key()
            (row,) = warehouse.job_rows()
            assert row.benchmark == "171.swim"
            assert row.machine == "paper"
            assert row.machine_fingerprint == "name:paper"
            assert row.workload_fingerprint == "builtin:171.swim"
            assert row.energy_ratio == pytest.approx(0.5)
            assert row.time_ratio == pytest.approx(2.0)
            assert row.ed2_ratio == pytest.approx(0.5 * 2.0**2)

    def test_matches_benchmark_evaluation_properties(self):
        # The SQL-side ratio math must agree with the real object graph.
        from repro.pipeline import evaluate_corpus
        from repro.workloads import build_corpus, spec_profile

        corpus = build_corpus(spec_profile("171.swim"), scale=0.01)
        evaluation = evaluate_corpus(corpus)
        job = ExperimentJob(
            benchmark="171.swim",
            scale=0.01,
            options=ExperimentOptions(),
        )
        payload = {
            "job": job.to_dict(),
            "key": job.key(),
            "status": "ok",
            "elapsed_s": 0.0,
            "evaluation": evaluation.to_dict(),
        }
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            (row,) = warehouse.job_rows()
            assert row.ed2_ratio == pytest.approx(evaluation.ed2_ratio)
            assert row.energy_ratio == pytest.approx(evaluation.energy_ratio)
            assert row.time_ratio == pytest.approx(evaluation.time_ratio)

    def test_rejects_incomplete_payloads(self):
        with Warehouse() as warehouse:
            assert warehouse.record_payload({}) is None
            assert warehouse.record_payload({"job": {"nope": 1}}) is None
            assert warehouse.job_count() == 0

    def test_upsert_is_idempotent(self):
        _job, payload = make_payload()
        with Warehouse() as warehouse:
            first = warehouse.record_payload(payload)
            second = warehouse.record_payload(payload)
            assert first == second
            assert warehouse.job_count() == 1

    def test_cache_stats_recorded(self):
        job, payload = make_payload(loop_cache={"hits": 3, "misses": 1})
        # A payload from a build that still had a stage cache.
        payload["stage_cache"] = {"hits": 7, "misses": 2}
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            assert warehouse.cache_stats(job.key()) == {
                "loop_hits": 3,
                "loop_misses": 1,
            }

    def test_span_stats_recorded_and_aggregated(self):
        from repro.warehouse import span_breakdown

        trace = {
            "name": "job",
            "elapsed_s": 1.0,
            "children": [
                {"name": "profile", "elapsed_s": 0.3},
                {"name": "profile", "elapsed_s": 0.2},
                {"name": "schedule", "elapsed_s": 0.4},
            ],
        }
        job, payload = make_payload()
        payload["trace"] = trace
        other_job, other = make_payload(benchmark="172.mgrid")
        other["trace"] = trace
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            warehouse.record_payload(other)
            stats = warehouse.span_stats(job.key())
            assert stats["profile"] == {"n": 2, "total_s": pytest.approx(0.5)}
            rows = span_breakdown(warehouse)
            by_name = {row.span: row for row in rows}
            # Root + both children, aggregated across the two jobs.
            assert by_name["job"].jobs == 2
            assert by_name["profile"].n == 4
            assert by_name["profile"].total_s == pytest.approx(1.0)
            assert rows[0].total_s == max(r.total_s for r in rows)
            # The machine selector scopes the aggregation like any
            # other warehouse query.
            machine_rows = span_breakdown(warehouse, "machine:paper")
            assert {r.span for r in machine_rows} == set(by_name)
            assert span_breakdown(warehouse, "machine:nope") == []

    def test_span_stats_replaced_on_reingest(self):
        job, payload = make_payload()
        payload["trace"] = {
            "name": "job",
            "elapsed_s": 1.0,
            "children": [{"name": "profile", "elapsed_s": 0.5}],
        }
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            payload["trace"] = {"name": "job", "elapsed_s": 2.0}
            warehouse.record_payload(payload)
            stats = warehouse.span_stats(job.key())
            assert "profile" not in stats
            assert stats["job"]["total_s"] == pytest.approx(2.0)

    def test_traceless_payloads_leave_no_span_rows(self):
        from repro.warehouse import span_breakdown

        _job, payload = make_payload()
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            assert span_breakdown(warehouse) == []


class TestSchemaUpgrade:
    def test_v3_warehouse_rebuilds_as_v4_without_stage_stats(self, tmp_path):
        import sqlite3

        from repro.warehouse.db import SCHEMA_VERSION

        job, payload = make_payload(loop_cache={"hits": 2, "misses": 5})
        payload["stage_cache"] = {"hits": 1, "misses": 3}
        store = ResultStore(tmp_path / "cache")
        store.save(job.key(), payload)
        with Warehouse.for_store(store) as warehouse:
            warehouse.ingest_store(store)
        # Turn the database into the schema-3 layout: the cache counters
        # lived in ``stage_stats``, bare stage names beside ``loop_*``.
        conn = sqlite3.connect(store.root / "warehouse.sqlite")
        conn.execute("ALTER TABLE cache_stats RENAME TO stage_stats")
        conn.executemany(
            "INSERT INTO stage_stats (job_key, counter, value) VALUES (?, ?, ?)",
            [(job.key(), "hits", 1), (job.key(), "misses", 3)],
        )
        conn.execute(
            "UPDATE warehouse_meta SET value = '3' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()

        with Warehouse.for_store(store) as warehouse:
            tables = {
                row[0]
                for row in warehouse._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            version = warehouse._conn.execute(
                "SELECT value FROM warehouse_meta WHERE key = 'schema_version'"
            ).fetchone()[0]
            assert SCHEMA_VERSION == 4 and version == "4"
            assert "stage_stats" not in tables and "cache_stats" in tables
            assert warehouse.job_count() == 0  # rebuilt, not migrated
            warehouse.ingest_store(store)
            assert warehouse.cache_rows() == [
                ("loop_hits", 2, 1),
                ("loop_misses", 5, 1),
            ]


class TestIngest:
    def test_ingests_store_and_links_campaign(self, tmp_path):
        store = fill_store(
            tmp_path / "cache",
            [("171.swim", {}), ("172.mgrid", {"energy_ratio": 0.7})],
        )
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            report = warehouse.ingest_store(store, campaign="run-a")
            assert report.added == 2
            assert report.unchanged == 0
            assert warehouse.job_count() == 2
            (campaign,) = warehouse.campaigns()
            assert campaign["label"] == "run-a"
            assert campaign["n_jobs"] == 2

    def test_reingest_is_incremental(self, tmp_path):
        store = fill_store(tmp_path / "cache", [("171.swim", {})])
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store)
            report = warehouse.ingest_store(store)
            assert report.added == 0
            assert report.unchanged == 1

    def test_reingest_under_second_label_links_existing_jobs(self, tmp_path):
        store = fill_store(tmp_path / "cache", [("171.swim", {})])
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store, campaign="a")
            warehouse.ingest_store(store, campaign="b")
            assert warehouse.job_count() == 1
            assert [c["n_jobs"] for c in warehouse.campaigns()] == [1, 1]

    def test_corrupt_entries_are_skipped(self, tmp_path):
        store = fill_store(tmp_path / "cache", [("171.swim", {})])
        (store.root / "deadbeef00000000.json").write_text("{not json")
        with Warehouse() as warehouse:
            report = warehouse.ingest_store(store)
            assert report.added == 1
            assert report.skipped == 1

    def test_queries_survive_json_deletion(self, tmp_path):
        # The acceptance bar: the index answers without the JSON bodies.
        store = fill_store(
            tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})]
        )
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store, campaign="only")
            for key in list(store.keys()):
                store.delete(key)
            assert len(store) == 0
            assert len(best_points(warehouse)) == 2
            assert len(pareto_frontier(warehouse)) >= 1


class TestQueries:
    def test_best_points_minimise_metric(self, tmp_path):
        with Warehouse() as warehouse:
            for benchmark, energy in (("171.swim", 0.8), ("171.swim", 0.6)):
                _job, payload = make_payload(
                    benchmark=benchmark,
                    energy_ratio=energy,
                    scale=0.01 if energy == 0.8 else 0.02,
                )
                warehouse.record_payload(payload)
            (best,) = best_points(warehouse, metric="energy_ratio")
            assert best.energy_ratio == pytest.approx(0.6)

    def test_unknown_campaign_raises(self):
        with Warehouse() as warehouse:
            with pytest.raises(WarehouseError):
                warehouse.job_rows("no-such-campaign")

    def test_unknown_metric_raises(self):
        with Warehouse() as warehouse:
            with pytest.raises(ValueError):
                best_points(warehouse, metric="speed")

    def test_pareto_across_all_history(self, tmp_path):
        with Warehouse() as warehouse:
            # Two configs: buses=1 dominates buses=2 on both axes.
            for buses, energy, time in ((1, 0.8, 1.0), (2, 0.9, 1.1)):
                _job, payload = make_payload(
                    options=ExperimentOptions(n_buses=buses),
                    energy_ratio=energy,
                    time_ratio=time,
                )
                warehouse.record_payload(payload)
            frontier = pareto_frontier(warehouse)
            assert [point.config for point in frontier] == ["buses=1"]

    def test_config_means_average_over_benchmarks(self, tmp_path):
        with Warehouse() as warehouse:
            for benchmark, energy in (("171.swim", 0.8), ("172.mgrid", 0.6)):
                _job, payload = make_payload(
                    benchmark=benchmark, energy_ratio=energy
                )
                warehouse.record_payload(payload)
            means = config_means(warehouse)
            (stats,) = means.values()
            assert stats["n_benchmarks"] == 2
            assert stats["mean_energy_ratio"] == pytest.approx(0.7)

    def test_campaign_regression_diff(self, tmp_path):
        # Same jobs in both campaigns -> content-addressed keys collide,
        # so the warehouse keeps one row per key; the *campaign links*
        # still distinguish populations.  Regression detection needs the
        # jobs to differ, which identical specs cannot (same key = same
        # result).  Use two scales to model "the code changed".
        warehouse = Warehouse(tmp_path / "wh.sqlite")
        old = fill_store(
            tmp_path / "old",
            [
                ("171.swim", {"scale": 0.01, "energy_ratio": 0.8}),
                ("172.mgrid", {"scale": 0.01, "energy_ratio": 0.9}),
            ],
        )
        new = fill_store(
            tmp_path / "new",
            [
                ("171.swim", {"scale": 0.02, "energy_ratio": 0.9}),
                ("172.mgrid", {"scale": 0.02, "energy_ratio": 0.7}),
            ],
        )
        warehouse.ingest_store(old, campaign="old")
        warehouse.ingest_store(new, campaign="new")
        # Scales differ, so campaign-vs-campaign join keys (benchmark,
        # scale, config) never match: diff on the machine axis is empty
        # and this documents that scale changes don't silently compare.
        assert regression_diff(warehouse, "old", "new") == []
        warehouse.close()

    def test_campaign_diff_detects_regressions(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh.sqlite")
        # Same spec, different machine *names*: join falls back to the
        # machine-stripped config, pairing the campaigns point-by-point.
        old = fill_store(
            tmp_path / "old",
            [
                ("171.swim", {"energy_ratio": 0.8}),
                (
                    "172.mgrid",
                    {
                        "energy_ratio": 0.9,
                        "options": ExperimentOptions(),
                    },
                ),
            ],
        )
        new = fill_store(
            tmp_path / "new",
            [
                (
                    "171.swim",
                    {
                        "energy_ratio": 0.9,
                        "options": _alt_machine(),
                    },
                ),
                (
                    "172.mgrid",
                    {
                        "energy_ratio": 0.7,
                        "options": _alt_machine(),
                    },
                ),
            ],
        )
        warehouse.ingest_store(old, campaign="old")
        warehouse.ingest_store(new, campaign="new")
        diffs = regression_diff(
            warehouse, "old", "new", metric="energy_ratio"
        )
        assert len(diffs) == 2
        by_benchmark = {diff.benchmark: diff for diff in diffs}
        assert by_benchmark["171.swim"].regressed
        assert not by_benchmark["172.mgrid"].regressed
        machine_diffs = regression_diff(
            warehouse, "machine:paper", "machine:wide-issue", metric="energy_ratio"
        )
        assert len(machine_diffs) == 2
        warehouse.close()


class TestConcurrentAccess:
    def test_wal_mode_and_busy_timeout_configured(self, tmp_path):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            connection = warehouse._conn
            assert (
                connection.execute("PRAGMA journal_mode").fetchone()[0]
                == "wal"
            )
            assert (
                connection.execute("PRAGMA busy_timeout").fetchone()[0]
                == 10_000
            )

    def test_concurrent_ingest_and_query_connections(self, tmp_path):
        # The fleet scenario: the serving process ingests results while
        # other connections (CLI queries, a second server) read the same
        # database file.  WAL + busy-timeout must keep both sides green.
        import threading

        path = tmp_path / "wh.sqlite"
        n_payloads = 30
        errors = []
        writer_done = threading.Event()

        def writer():
            try:
                with Warehouse(path) as warehouse:
                    for index in range(n_payloads):
                        _job, payload = make_payload(
                            benchmark="171.swim",
                            scale=0.01 + index * 0.001,
                        )
                        warehouse.record_payload(payload, campaign="fleet")
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)
            finally:
                writer_done.set()

        def reader():
            try:
                with Warehouse(path) as warehouse:
                    while not writer_done.is_set():
                        warehouse.job_count()
                        best_points(warehouse)
                    # One final read sees the writer's full output.
                    assert warehouse.job_count() == n_payloads
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)

        # The writer's first record creates the schema before the reader
        # opens its own connection.
        with Warehouse(path):
            pass
        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert errors == []
        with Warehouse(path) as warehouse:
            assert warehouse.job_count() == n_payloads
            (campaign,) = warehouse.campaigns()
            assert campaign["n_jobs"] == n_payloads

    def test_close_waits_for_an_in_flight_write(self, tmp_path):
        # The service records traces on executor threads while tests
        # (and shutdown) close the warehouse; closing under a running
        # statement crashed the process.  close() must wait instead.
        import threading
        import time

        warehouse = Warehouse(tmp_path / "wh.sqlite")
        started = threading.Event()
        outcome = {}

        def slow_write():
            started.set()
            time.sleep(0.2)
            warehouse._conn.execute("SELECT 1")
            outcome["written"] = True

        def writer():
            try:
                warehouse._with_retry(slow_write)
            except Exception as error:  # pragma: no cover - fail below
                outcome["error"] = error

        thread = threading.Thread(target=writer)
        thread.start()
        assert started.wait(5)
        warehouse.close()
        thread.join(5)
        assert not thread.is_alive()
        assert outcome == {"written": True}


class TestReporting:
    def test_tables_render(self, tmp_path):
        from repro.reporting import (
            warehouse_best_table,
            warehouse_diff_table,
            warehouse_jobs_table,
            warehouse_pareto_table,
            warehouse_summary_table,
        )

        store = fill_store(
            tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})]
        )
        with Warehouse() as warehouse:
            warehouse.ingest_store(store, campaign="a")
            summary = warehouse_summary_table(warehouse)
            assert "2 job(s)" in summary and "a" in summary
            assert "171.swim" in warehouse_jobs_table(warehouse.job_rows())
            assert "171.swim" in warehouse_best_table(warehouse)
            assert "Pareto" in warehouse_pareto_table(warehouse)
            diffs = regression_diff(warehouse, "a", "a")
            table = warehouse_diff_table(diffs, "a", "a")
            assert "0/2 regressed" in table


class TestCLI:
    def test_query_ingest_then_best_json(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        fill_store(tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})])
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                ["query", "ingest", "cache", "--label", "a", "--cache-dir", "cache"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["query", "best", "--cache-dir", "cache", "--output", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {row["benchmark"] for row in data["best"]} == {
            "171.swim",
            "172.mgrid",
        }

    def test_query_diff_exit_code_flags_regressions(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        fill_store(
            tmp_path / "old", [("171.swim", {"energy_ratio": 0.8})]
        )
        fill_store(
            tmp_path / "new",
            [
                (
                    "171.swim",
                    {
                        "energy_ratio": 0.9,
                        "options": _alt_machine(),
                    },
                )
            ],
        )
        assert main(["query", "ingest", "old", "--label", "old"]) == 0
        assert main(["query", "ingest", "new", "--label", "new"]) == 0
        capsys.readouterr()
        code = main(
            ["query", "diff", "old", "new", "--metric", "energy_ratio"]
        )
        assert code == 1  # regression detected -> gate-style exit code
        assert "REGRESSED" in capsys.readouterr().out

    def test_query_unknown_campaign_fails_cleanly(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["query", "best", "nope"]) == 2

    def test_query_best_benchmark_filters_table_output(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        fill_store(tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})])
        assert main(["query", "ingest", "cache"]) == 0
        capsys.readouterr()
        assert main(["query", "best", "--benchmark", "171.swim"]) == 0
        output = capsys.readouterr().out
        assert "171.swim" in output
        assert "172.mgrid" not in output

"""Tests for the SQLite results warehouse (repro.warehouse)."""

import json

import pytest

from repro.campaign import (
    ExperimentJob,
    ResultStore,
    best_rows,
    config_means,
    pareto_frontier,
)
from repro.pipeline import ExperimentOptions
from repro.warehouse import (
    QUERY_OPS,
    Warehouse,
    WarehouseError,
    regression_diff,
    run_query,
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


def fill_store(root, specs, label=None):
    """Write one payload per (benchmark, kwargs) spec; returns the store.

    ``label`` files every entry under that campaign, as ``repro query
    ingest --label`` does.
    """
    store = ResultStore(root)
    for benchmark, kwargs in specs:
        job, payload = make_payload(benchmark=benchmark, **kwargs)
        store.save(job.key(), payload)
    if label is not None:
        store.add_label(label, store.keys())
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
            rows = run_query(warehouse, "spans")["spans"]
            by_name = {row["span"]: row for row in rows}
            # Root + both children, aggregated across the two jobs.
            assert by_name["job"]["jobs"] == 2
            assert by_name["profile"]["n"] == 4
            assert by_name["profile"]["total_s"] == pytest.approx(1.0)
            assert rows[0]["total_s"] == max(r["total_s"] for r in rows)
            # The machine selector scopes the aggregation like any
            # other warehouse query.
            machine_rows = run_query(warehouse, "spans", ["machine:paper"])
            assert {r["span"] for r in machine_rows["spans"]} == set(by_name)
            assert run_query(warehouse, "spans", ["machine:nope"]) == {
                "spans": []
            }

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
        _job, payload = make_payload()
        with Warehouse() as warehouse:
            warehouse.record_payload(payload)
            assert run_query(warehouse, "spans") == {"spans": []}


class TestSchemaUpgrade:
    def test_v3_warehouse_rebuilds_without_stage_stats(self, tmp_path):
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
            assert version == str(SCHEMA_VERSION)
            assert "stage_stats" not in tables and "cache_stats" in tables
            assert warehouse.job_count() == 0  # rebuilt, not migrated
            warehouse.ingest_store(store)
            assert warehouse.cache_rows() == [
                ("loop_hits", 2, 1),
                ("loop_misses", 5, 1),
            ]


    def test_v4_warehouse_rebuilds_with_evaluation_ratios(self, tmp_path):
        import sqlite3

        from repro.pipeline.serialization import evaluation_ratios

        job, payload = make_payload(energy_ratio=0.7, time_ratio=1.3)
        store = ResultStore(tmp_path / "cache")
        store.save(job.key(), payload)
        with Warehouse.for_store(store) as warehouse:
            warehouse.ingest_store(store)
        # A version-4 index: ratio columns from the older summation.
        conn = sqlite3.connect(store.root / "warehouse.sqlite")
        conn.execute("UPDATE jobs SET ed2_ratio = 0.5")
        conn.execute(
            "UPDATE warehouse_meta SET value = '4' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()

        with Warehouse.for_store(store) as warehouse:
            assert warehouse.job_count() == 0
            warehouse.ingest_store(store)
            (row,) = warehouse.job_rows()
            assert (row.ed2_ratio, row.energy_ratio, row.time_ratio) == (
                evaluation_ratios(payload["evaluation"])
            )


class TestIngest:
    def test_ingests_store_and_links_campaign(self, tmp_path):
        store = fill_store(
            tmp_path / "cache",
            [("171.swim", {}), ("172.mgrid", {"energy_ratio": 0.7})],
            label="run-a",
        )
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            report = warehouse.ingest_store(store)
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
        store = fill_store(tmp_path / "cache", [("171.swim", {})], label="a")
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store)
            store.add_label("b", store.keys())
            warehouse.ingest_store(store)
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
            tmp_path / "cache",
            [("171.swim", {}), ("172.mgrid", {})],
            label="only",
        )
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store)
            for key in list(store.keys()):
                store.delete(key)
            assert len(store) == 0
            assert len(run_query(warehouse, "best")["best"]) == 2
            assert len(run_query(warehouse, "pareto")["pareto"]) >= 1


def labelled_traced_store(root):
    """A store with two labels, one diff-able pair, span and cache
    counters, and one saved trace ``t1``.

    ``old`` holds two paper-machine points; ``new`` the same two points
    on another machine, filed by two memberships.
    """
    trace = {
        "name": "job",
        "elapsed_s": 1.0,
        "children": [{"name": "schedule", "elapsed_s": 0.4}],
    }
    store = ResultStore(root)
    keys = {"old": [], "new": []}
    for label, options, energies in (
        ("old", None, (0.8, 0.9)),
        ("new", _alt_machine(), (0.9, 0.7)),
    ):
        for benchmark, energy in zip(("171.swim", "172.mgrid"), energies):
            job, payload = make_payload(
                benchmark=benchmark,
                options=options,
                energy_ratio=energy,
                loop_cache={"hits": 3, "misses": 1},
            )
            payload["trace"] = trace
            store.save(job.key(), payload)
            keys[label].append(job.key())
    store.add_label("old", keys["old"])
    for key in keys["new"]:
        store.add_label("new", [key])
    store.save_trace(
        trace_id="t1",
        job_id=keys["old"][0],
        kind="evaluate",
        created_at=42.0,
        tree={"name": "submit", "elapsed_s": 2.0, "start_s": 40.0},
    )
    return store


#: One selector list per query op, each naming something in
#: :func:`labelled_traced_store`.
ALL_QUERIES = {
    "summary": [],
    "campaigns": [],
    "jobs": ["old"],
    "best": [],
    "pareto": ["new"],
    "spans": ["old"],
    "cache": ["new"],
    "timeline": ["t1"],
    "diff": ["old", "new"],
}


def all_documents(warehouse):
    assert set(ALL_QUERIES) == set(QUERY_OPS)
    return {
        op: run_query(warehouse, op, selectors, metric="energy_ratio")
        for op, selectors in ALL_QUERIES.items()
    }


class TestRebuildFromStore:
    """The store is the only record: the index rebuilds from it alone."""

    def test_schema_rebuild_keeps_labels_and_traces(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.__main__ import main

        store = fill_store(tmp_path / "cache", [("171.swim", {})])
        monkeypatch.chdir(tmp_path)
        assert main(["query", "ingest", "--label", "july", "--cache-dir", "cache"]) == 0
        store.save_trace(
            trace_id="t1", job_id="j1", kind="evaluate",
            created_at=42.0, tree={"name": "submit", "elapsed_s": 1.0},
        )
        with Warehouse.for_store(store) as warehouse:
            warehouse.ingest_store(store)
        conn = sqlite3.connect(store.root / "warehouse.sqlite")
        conn.execute(
            "UPDATE warehouse_meta SET value = '4' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()

        with Warehouse.for_store(store) as warehouse:
            assert warehouse.campaigns() == []  # dropped whole
            assert warehouse.ingest_store(store).added == 1
            (campaign,) = warehouse.campaigns()
            assert (campaign["label"], campaign["n_jobs"]) == ("july", 1)
            (best,) = run_query(warehouse, "best", ["july"])["best"]
            assert best["benchmark"] == "171.swim"
            assert run_query(warehouse, "timeline", ["t1"])["job"] == "j1"

    def test_every_query_survives_a_deleted_index(self, tmp_path):
        store = labelled_traced_store(tmp_path / "cache")
        with Warehouse.for_store(store) as warehouse:
            warehouse.ingest_store(store)
            before = all_documents(warehouse)
        assert [c["label"] for c in before["campaigns"]["campaigns"]] == [
            "old",
            "new",
        ]
        assert [c["n_jobs"] for c in before["campaigns"]["campaigns"]] == [2, 2]
        assert before["diff"]["regressed"] == 1
        assert before["spans"]["spans"] and before["cache"]["cache"]
        for suffix in ("", "-wal", "-shm"):
            (store.root / f"warehouse.sqlite{suffix}").unlink(missing_ok=True)
        with Warehouse.for_store(store) as warehouse:
            assert warehouse.job_count() == 0
            warehouse.ingest_store(store)
            assert all_documents(warehouse) == before

    def test_every_query_survives_a_schema_bump(self, tmp_path, monkeypatch):
        from repro.warehouse import db

        store = labelled_traced_store(tmp_path / "cache")
        with Warehouse.for_store(store) as warehouse:
            warehouse.ingest_store(store)
            before = all_documents(warehouse)
        monkeypatch.setattr(db, "SCHEMA_VERSION", db.SCHEMA_VERSION + 1)
        with Warehouse.for_store(store) as warehouse:
            assert warehouse.job_count() == 0
            assert warehouse.campaigns() == []
            warehouse.ingest_store(store)
            assert all_documents(warehouse) == before

    def test_concurrent_labels_of_one_label_lose_no_key(self, tmp_path):
        # Writers (say the service and CLI ingests) file disjoint key
        # sets under one label at once, each indexing its memberships on
        # its own connection to one database.  More writers than cores,
        # and a short switch interval, to interleave them.
        import sys
        import threading

        store = fill_store(
            tmp_path / "cache",
            [("171.swim", {"scale": 0.01 + index * 0.001}) for index in range(16)],
        )
        keys = list(store.keys())
        path = tmp_path / "wh.sqlite"
        with Warehouse(path) as warehouse:
            warehouse.ingest_store(store)
        n_writers = 4
        errors = []
        barrier = threading.Barrier(n_writers)

        def label(share):
            try:
                writer_store = ResultStore(store.root)
                with Warehouse(path) as warehouse:
                    barrier.wait(10)
                    for key in share:
                        warehouse.index_file(writer_store.add_label("shared", [key]))
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)

        threads = [
            threading.Thread(target=label, args=(keys[index::n_writers],))
            for index in range(n_writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        with Warehouse(path) as warehouse:
            (campaign,) = warehouse.campaigns()
            assert campaign["n_jobs"] == len(keys)
            assert sorted(row.key for row in warehouse.job_rows("shared")) == keys
        with Warehouse() as rebuilt:
            rebuilt.ingest_store(store)
            assert rebuilt.campaigns()[0]["n_jobs"] == len(keys)

    def test_label_dates_from_its_earliest_membership(self, tmp_path):
        store = fill_store(
            tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})]
        )
        first, second = store.keys()

        def dated(label, keys, created_at):
            path = store.add_label(label, keys)
            record = json.loads(path.read_text())
            path.write_text(json.dumps(dict(record, created_at=created_at)))
            return path

        dated("run", [first], 10.0)
        late = dated("run", [second], 20.0)
        dated("between", [first], 15.0)
        with Warehouse() as warehouse:
            # Index the late membership first: the label still dates
            # from the early one.
            assert warehouse.index_file(late)
            warehouse.ingest_store(store)
            assert [
                (c["label"], c["created_at"], c["n_jobs"])
                for c in warehouse.campaigns()
            ] == [("run", 10.0, 2), ("between", 15.0, 1)]

    def test_unchanged_reingest_parses_no_file(self, tmp_path, monkeypatch):
        store = labelled_traced_store(tmp_path / "cache")
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store)
            before = all_documents(warehouse)

            def no_parse(*args, **kwargs):
                raise AssertionError("an unchanged re-ingest parsed a file")

            with monkeypatch.context() as patch:
                patch.setattr(json, "load", no_parse)
                patch.setattr(json, "loads", no_parse)
                report = warehouse.ingest_store(store)
            assert (
                report.added, report.updated, report.unchanged, report.skipped
            ) == (0, 0, 4, 0)
            assert all_documents(warehouse) == before

    def test_changed_files_are_read_again(self, tmp_path):
        import os

        store = labelled_traced_store(tmp_path / "cache")
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_store(store)
            path = store.save_trace(
                trace_id="t1", job_id="j9", kind="suite",
                created_at=43.0, tree={"name": "submit", "elapsed_s": 3.0},
            )
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            warehouse.ingest_store(store)
            assert warehouse.trace("t1")["job"] == "j9"

    def test_unreadable_records_are_skipped(self, tmp_path):
        store = labelled_traced_store(tmp_path / "cache")
        (store.root / "campaigns" / "bad.json").write_text("{not json")
        (store.root / "traces" / "bad.json").write_text('{"trace": "x"}')
        with Warehouse() as warehouse:
            warehouse.ingest_store(store)
            assert [c["label"] for c in warehouse.campaigns()] == ["old", "new"]
            assert warehouse.trace("x") is None
            assert not warehouse.index_file(store.root / "traces" / "gone.json")


class TestStoreRecords:
    def test_labels_and_traces_stay_out_of_job_listings(self, tmp_path):
        store = labelled_traced_store(tmp_path / "cache")
        assert len(store) == 4
        assert len(list(store.keys())) == 4
        assert [key for key, _mtime in store.stat_entries()] == list(store.keys())
        assert [
            (path.parent.name, path.name == "t1.json")
            for path, _mtime in store.stat_records()
        ] == [("campaigns", False)] * 3 + [("traces", True)]

    def test_relabelling_the_same_keys_writes_nothing(self, tmp_path):
        store = fill_store(tmp_path / "cache", [("171.swim", {})])
        path = store.add_label("a", store.keys())
        body = path.read_bytes()
        mtime = path.stat().st_mtime_ns
        assert store.add_label("a", reversed(list(store.keys()))) == path
        assert path.read_bytes() == body
        assert path.stat().st_mtime_ns == mtime
        record = json.loads(body)
        assert (record["label"], record["keys"]) == ("a", list(store.keys()))
        assert store.add_label("b", store.keys()) != path


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
            (best,) = best_rows(warehouse.job_rows(), metric="energy_ratio")
            assert best.energy_ratio == pytest.approx(0.6)
            document = run_query(warehouse, "best", metric="energy_ratio")
            assert document == {"best": [vars(best)]}

    def test_unknown_campaign_raises(self):
        with Warehouse() as warehouse:
            with pytest.raises(WarehouseError):
                warehouse.job_rows("no-such-campaign")

    def test_unknown_metric_raises(self):
        with Warehouse() as warehouse:
            with pytest.raises(ValueError):
                best_rows(warehouse.job_rows(), metric="speed")
            with pytest.raises(ValueError):
                run_query(warehouse, "best", metric="speed")

    @pytest.mark.parametrize("op", sorted(QUERY_OPS))
    def test_selector_count_checked(self, op):
        least, most = QUERY_OPS[op]
        with Warehouse() as warehouse:
            with pytest.raises(ValueError, match="selector"):
                run_query(warehouse, op, ["machine:paper"] * (most + 1))
            if least:
                with pytest.raises(ValueError, match="selector"):
                    run_query(warehouse, op, [])

    @pytest.mark.parametrize(
        "op, selectors",
        [
            ("jobs", ["nope"]),
            ("best", ["nope"]),
            ("pareto", ["nope"]),
            ("spans", ["nope"]),
            ("cache", ["nope"]),
            ("diff", ["nope", "machine:paper"]),
            ("timeline", ["nope"]),
        ],
    )
    def test_selector_naming_nothing_raises(self, op, selectors):
        with Warehouse() as warehouse:
            with pytest.raises(WarehouseError):
                run_query(warehouse, op, selectors)

    def test_unknown_op_raises(self):
        with Warehouse() as warehouse:
            with pytest.raises(ValueError, match="unknown query"):
                run_query(warehouse, "ingest")

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
            frontier = pareto_frontier(warehouse.job_rows())
            assert [point.config for point in frontier] == ["buses=1"]
            assert run_query(warehouse, "pareto") == {
                "pareto": [vars(point) for point in frontier]
            }

    def test_config_means_average_over_benchmarks(self, tmp_path):
        with Warehouse() as warehouse:
            for benchmark, energy in (("171.swim", 0.8), ("172.mgrid", 0.6)):
                _job, payload = make_payload(
                    benchmark=benchmark, energy_ratio=energy
                )
                warehouse.record_payload(payload)
            means = config_means(warehouse.job_rows())
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
            label="old",
        )
        new = fill_store(
            tmp_path / "new",
            [
                ("171.swim", {"scale": 0.02, "energy_ratio": 0.9}),
                ("172.mgrid", {"scale": 0.02, "energy_ratio": 0.7}),
            ],
            label="new",
        )
        warehouse.ingest_store(old)
        warehouse.ingest_store(new)
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
            label="old",
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
            label="new",
        )
        warehouse.ingest_store(old)
        warehouse.ingest_store(new)
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
        payloads = [
            make_payload(benchmark="171.swim", scale=0.01 + index * 0.001)[1]
            for index in range(n_payloads)
        ]
        membership = ResultStore(tmp_path / "cache").add_label(
            "fleet", [payload["key"] for payload in payloads]
        )

        def writer():
            try:
                with Warehouse(path) as warehouse:
                    assert warehouse.index_file(membership)
                    for payload in payloads:
                        warehouse.record_payload(payload)
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)
            finally:
                writer_done.set()

        def reader():
            try:
                with Warehouse(path) as warehouse:
                    while not writer_done.is_set():
                        warehouse.job_count()
                        run_query(warehouse, "best")
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
            render_query,
            warehouse_best_table,
            warehouse_diff_table,
            warehouse_jobs_table,
            warehouse_pareto_table,
            warehouse_summary_table,
        )

        store = fill_store(
            tmp_path / "cache", [("171.swim", {}), ("172.mgrid", {})], label="a"
        )
        with Warehouse() as warehouse:
            warehouse.ingest_store(store)
            summary = warehouse_summary_table(run_query(warehouse, "summary"))
            assert "2 job(s)" in summary and "a" in summary
            jobs = run_query(warehouse, "jobs")
            assert "171.swim" in warehouse_jobs_table(jobs)
            best = run_query(warehouse, "best")
            assert "171.swim" in warehouse_best_table(best)
            pareto = run_query(warehouse, "pareto")
            assert "Pareto" in warehouse_pareto_table(pareto)
            diff = run_query(warehouse, "diff", ["a", "a"])
            table = warehouse_diff_table(diff, "a", "a")
            assert "0/2 regressed" in table
            assert render_query("diff", diff, ["a", "a"]) == table
            assert render_query("best", best) == warehouse_best_table(best)
            cache = render_query("cache", run_query(warehouse, "cache", ["a"]), ["a"])
            assert "Cache counters (a)" in cache


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

    def test_query_wrong_selector_count_fails_cleanly(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["query", "best", "a", "b"]) == 2
        assert main(["query", "diff", "a"]) == 2
        assert "takes 2 selector(s), got 1" in capsys.readouterr().err

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

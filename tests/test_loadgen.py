"""Tests for the open-loop load generator (repro.loadgen)."""

import asyncio
import json

import pytest

from repro.loadgen import (
    LoadgenError,
    check_slos,
    merge_report,
    run_load,
    self_hosted_service,
)
from repro.loadgen.harness import PROFILES, _mixed_request, http_json


def run_short_load(**overrides):
    options = dict(
        rate=80.0,
        duration=1.5,
        profile="mixed",
        seed=3,
        drain_timeout=30.0,
    )
    options.update(overrides)
    with self_hosted_service(compute_s=0.005, workers=8) as handle:
        return asyncio.run(run_load(handle.host, handle.port, **options))


class TestRunLoad:
    def test_short_mixed_run_produces_full_report(self):
        report = run_short_load()
        counts = report["counts"]
        assert counts["arrivals"] > 50
        assert counts["responses"] == counts["arrivals"]
        assert counts["transport_errors"] == 0
        assert counts["http_errors"] == 0
        assert report["latency"]["count"] == counts["responses"]
        assert report["latency"]["p99_ms"] >= report["latency"]["p50_ms"]
        assert report["healthz"]["count"] > 5
        assert report["healthz"]["failures"] == 0
        # Every submitted job settled during the drain phase.
        jobs = report["jobs"]
        assert jobs["drained"]
        assert jobs["submitted"] > 0
        assert jobs["done"] == jobs["submitted"]
        assert report["goodput_jobs_per_s"] > 0

    def test_same_seed_same_arrival_plan(self):
        # Arrival counts and submitted-job sets are seed-deterministic
        # (latencies of course are not).
        first = run_short_load(seed=11)
        second = run_short_load(seed=11)
        assert first["counts"]["arrivals"] == second["counts"]["arrivals"]
        assert first["jobs"]["submitted"] == second["jobs"]["submitted"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(LoadgenError):
            asyncio.run(run_load("127.0.0.1", 1, rate=0, duration=1))
        with pytest.raises(LoadgenError):
            asyncio.run(
                run_load("127.0.0.1", 1, rate=10, duration=1, profile="nope")
            )

    def test_no_server_fails_fast(self):
        with pytest.raises(LoadgenError, match="no service"):
            asyncio.run(
                run_load("127.0.0.1", 9, rate=10, duration=1)
            )

    def test_admission_pressure_shows_up_as_rejections(self):
        # A tiny admission limit + slow synthetic jobs: the flood must
        # surface 429s in the report rather than erroring out.
        with self_hosted_service(
            compute_s=0.3, workers=2, max_interactive=2, max_batch=1
        ) as handle:
            report = asyncio.run(
                run_load(
                    handle.host,
                    handle.port,
                    rate=120.0,
                    duration=1.5,
                    profile="evaluate",
                    seed=5,
                    drain_timeout=60.0,
                )
            )
        assert report["counts"]["rejected"] > 0
        assert report["rejection_rate"] > 0
        assert report["counts"]["http_errors"] == 0
        assert report["jobs"]["drained"]


class TestTrafficProfiles:
    def test_mixed_profile_covers_all_kinds(self):
        import random

        rng = random.Random(0)
        kinds = {
            _mixed_request(rng, 0.01, 0, ["/stats"])[0]
            for _ in range(300)
        }
        assert kinds == {"evaluate", "suite", "campaign", "query"}

    def test_profiles_registry(self):
        assert set(PROFILES) == {"mixed", "evaluate"}


class TestSloGate:
    def make_report(self, **overrides):
        report = run_short_load()
        report.update(overrides)
        return report

    def test_healthy_run_passes_loose_slos(self):
        report = self.make_report()
        assert (
            check_slos(
                report,
                p99_ms=60_000,
                healthz_p99_ms=60_000,
                error_max=0.5,
                goodput_min=0.0,
            )
            == []
        )

    def test_each_threshold_trips_independently(self):
        report = self.make_report()
        assert check_slos(report, p99_ms=0.0)
        assert check_slos(report, healthz_p99_ms=0.0)
        assert check_slos(report, goodput_min=1e9)
        report["rejection_rate"] = 0.5
        assert check_slos(report, reject_max=0.1)
        report["error_rate"] = 0.2
        assert check_slos(report, error_max=0.1)

    def test_undrained_jobs_always_fail_the_gate(self):
        report = self.make_report()
        report["jobs"] = dict(
            report["jobs"], drained=False, undrained=3
        )
        [failure] = check_slos(report)
        assert "terminal state" in failure


class TestMergeReport:
    def test_merges_into_existing_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps({"submit_p50_ms": 1.5}))
        merge_report({"offered_rps": 50}, path)
        data = json.loads(path.read_text())
        assert data["submit_p50_ms"] == 1.5
        assert data["sustained_load"]["offered_rps"] == 50

    def test_creates_file_and_custom_section(self, tmp_path):
        path = tmp_path / "missing.json"
        merge_report({"a": 1}, path, section="load_smoke")
        assert json.loads(path.read_text()) == {"load_smoke": {"a": 1}}

    def test_overwrites_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{nope")
        merge_report({"a": 1}, path)
        assert json.loads(path.read_text())["sustained_load"] == {"a": 1}


class TestMiniHttpClient:
    def test_http_json_roundtrip_against_real_service(self):
        async def body(host, port):
            status, document = await http_json(host, port, "GET", "/healthz")
            assert status == 200
            assert document["status"] == "ok"
            status, document = await http_json(
                host,
                port,
                "POST",
                "/v1/evaluate",
                {"benchmark": "171.swim", "scale": 0.01},
            )
            assert status in (200, 202)
            assert "job" in document

        with self_hosted_service(compute_s=0.01, workers=2) as handle:
            asyncio.run(body(handle.host, handle.port))

    def test_connection_refused_raises_oserror(self):
        with pytest.raises((OSError, asyncio.TimeoutError)):
            asyncio.run(http_json("127.0.0.1", 9, "GET", "/healthz"))

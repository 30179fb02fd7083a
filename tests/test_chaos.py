"""Tests for deterministic fault injection (repro.chaos).

Covers plan parsing/validation, injector determinism, the process-wide
registry (explicit install vs. the REPRO_CHAOS environment variable),
the fleet worker's injected-crash hook (via an injectable crash
callable — no real os._exit in tests), and warehouse ingest surviving
an injected SQLite busy storm.
"""

import threading

import pytest

from repro import chaos
from repro.chaos import ChaosInjector, FaultPlan, parse_plan
from repro.chaos.plan import ChaosError
from repro.fleet import FleetWorker
from repro.service import ServiceClient
from repro.warehouse import Warehouse

from test_fleet import fleet_service, instant_execute
from test_warehouse import make_payload


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with no installed plan."""
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestFaultPlan:
    def test_parse_round_trips(self):
        plan = parse_plan("worker_crash_p=0.25,sqlite_busy_p=0.5,seed=9")
        assert plan.worker_crash_p == 0.25
        assert plan.sqlite_busy_p == 0.5
        assert plan.seed == 9
        assert parse_plan(plan.to_spec()) == plan

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ChaosError):
            parse_plan("nope=0.1")
        with pytest.raises(ChaosError):
            parse_plan("worker_crash_p=lots")
        with pytest.raises(ChaosError):
            parse_plan("worker_crash_p")

    def test_validate_bounds(self):
        with pytest.raises(ChaosError):
            FaultPlan(http_error_p=1.5).validate()
        with pytest.raises(ChaosError):
            FaultPlan(complete_delay_s=-1.0).validate()
        FaultPlan(http_error_p=1.0).validate()  # inclusive bounds

    def test_enabled_only_when_some_probability_set(self):
        assert not FaultPlan().enabled()
        assert not FaultPlan(seed=5).enabled()
        assert FaultPlan(http_reset_p=0.01).enabled()


class TestChaosInjector:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(worker_crash_p=0.3, http_error_p=0.2, seed=42)
        a = ChaosInjector(plan)
        b = ChaosInjector(plan)
        sequence_a = [
            (a.worker_crash(), a.http_fault()) for _ in range(50)
        ]
        sequence_b = [
            (b.worker_crash(), b.http_fault()) for _ in range(50)
        ]
        assert sequence_a == sequence_b
        assert any(crash for crash, _ in sequence_a)

    def test_zero_probability_never_fires(self):
        injector = ChaosInjector(FaultPlan(seed=1))
        for _ in range(200):
            assert not injector.worker_crash()
            assert injector.http_fault() is None
            assert not injector.sqlite_busy()
            assert injector.completion_delay() == 0.0

    def test_completion_delay_returns_configured_seconds(self):
        injector = ChaosInjector(
            FaultPlan(complete_delay_p=1.0, complete_delay_s=2.5)
        )
        assert injector.completion_delay() == 2.5

    def test_draw_is_thread_safe(self):
        injector = ChaosInjector(FaultPlan(http_error_p=0.5, seed=0))
        hits = []

        def hammer():
            hits.append(sum(1 for _ in range(500) if injector.http_fault()))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(hits)
        assert 500 < total < 1500  # ~50% of 2000, loosely bounded


class TestRegistry:
    def test_install_and_uninstall(self):
        assert chaos.active() is None
        chaos.install(FaultPlan(http_error_p=0.1))
        assert chaos.active() is not None
        chaos.uninstall()
        assert chaos.active() is None

    def test_inert_plan_clears_injector(self):
        chaos.install(FaultPlan(http_error_p=0.1))
        chaos.install(FaultPlan())
        assert chaos.active() is None

    def test_env_var_installs_lazily(self, monkeypatch):
        monkeypatch.setenv(chaos.plan.ENV_VAR, "sqlite_busy_p=0.2,seed=3")
        chaos.uninstall()  # reset the memo so the env var is re-read
        injector = chaos.active()
        assert injector is not None
        assert injector.plan.sqlite_busy_p == 0.2
        assert injector.plan.seed == 3

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(chaos.plan.ENV_VAR, "bogus=1")
        chaos.uninstall()
        with pytest.raises(ChaosError):
            chaos.active()


class TestWorkerCrash:
    def test_injected_crash_releases_nothing_and_job_is_stolen(
        self, tmp_path
    ):
        # A chaos-crashed worker dies mid-lease (no release, no
        # complete). The lease must expire and a healthy worker must
        # finish the job: crash-consistency end to end.
        service, _store, warehouse = fleet_service(tmp_path, lease_ttl=1.0)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            job = client.submit_evaluate(benchmark="171.swim", scale=0.01)
            chaos.install(FaultPlan(worker_crash_p=1.0, seed=0))
            crashes = []
            victim = FleetWorker(
                client,
                worker_id="victim",
                ttl=1.0,
                poll=0.05,
                execute=instant_execute,
                max_jobs=1,
                crash=lambda: crashes.append(True),
            )
            victim.run()
            assert crashes  # the chaos hook fired instead of executing
            assert victim.stats.completed == 0

            chaos.uninstall()
            rescuer = FleetWorker(
                client,
                worker_id="rescuer",
                ttl=5.0,
                poll=0.05,
                execute=instant_execute,
                max_jobs=1,
            )
            stats = rescuer.run()
            assert stats.completed == 1
            assert client.wait(job["id"], timeout=15)["status"] == "done"
        finally:
            service.stop()
            warehouse.close()


class TestSqliteBusyStorm:
    def test_ingest_survives_injected_busy_errors(self):
        # Every non-final retry attempt hits an injected "database is
        # locked"; the retry ladder must still land every row exactly
        # once.
        chaos.install(FaultPlan(sqlite_busy_p=1.0, seed=7))
        warehouse = Warehouse()
        try:
            keys = set()
            for index, benchmark in enumerate(
                ("171.swim", "172.mgrid", "173.applu")
            ):
                _job, payload = make_payload(
                    benchmark=benchmark, scale=0.01 + index / 1000
                )
                key = warehouse.record_payload(payload)
                assert key is not None
                keys.add(key)
            assert len(keys) == 3
            assert warehouse.summary()["jobs"] == 3
        finally:
            warehouse.close()

    def test_partial_busy_storm_is_deterministic(self):
        # Same plan, same seed => same number of injected faults.
        def run_once():
            chaos.install(FaultPlan(sqlite_busy_p=0.5, seed=11))
            injector = chaos.active()
            return [injector.sqlite_busy() for _ in range(40)]

        first = run_once()
        second = run_once()
        assert first == second
        assert any(first)

"""Self-test of the benchmark: every workload end to end, tiny, both modes.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q

Each run uses ``--quick`` (two benchmarks) and checks that the result
line carries every metric ``BENCHMARK.json`` declares, with its unit,
that every evaluation matched its recorded digest, and the cache and
attribution properties each workload promises.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = run_benchmark(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], completed.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    assert values["telemetry.trace_overhead_ratio"] > 0
    if workload == "cold_eval":
        assert values["pipeline.cache.loop_hits"] == 0
        assert values["scheduler.loops"] > 0
    if workload == "warm_sweep":
        assert values["pipeline.cache.loop_misses"] == 0
        assert values["scheduler.loops"] == 0
    if workload in ("cold_eval", "warm_sweep"):
        assert values["telemetry.attributed_ratio"] >= 0.95
    if workload == "service_mixed":
        assert values["service.dedup_hits.job"] > 0
        assert values["fleet.leases_expired"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_benchmark(tmp_path, "cold_eval", 0)
    assert completed.returncode != 0
    assert completed.stdout == ""

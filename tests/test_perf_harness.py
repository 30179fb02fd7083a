"""The ``repro bench`` harness times what it promises to time."""

from __future__ import annotations

from repro.perf import run_warm_sweep_bench, time_benchmark
from repro.pipeline import ExperimentOptions
from repro.pipeline.cache import LOOP_CACHE


def _loop_delta(run):
    before = LOOP_CACHE.stats()
    result = run()
    after = LOOP_CACHE.stats()
    return result, {name: after[name] - before[name] for name in after}


class TestTimeBenchmark:
    def test_every_call_times_an_uncached_run(self):
        options = ExperimentOptions(simulate=False)
        for _ in range(2):
            result, delta = _loop_delta(
                lambda: time_benchmark("171.swim", 0.02, options)
            )
            # Two profile passes and one schedule pass, each a miss on
            # every loop: the second call is as cold as the first.
            assert delta["hits"] == 0
            assert delta["misses"] == 3 * result["n_loops"]


class TestWarmSweepBench:
    def test_warm_pass_reschedules_nothing(self):
        result = run_warm_sweep_bench(
            benchmarks=["171.swim"], scale=0.02, n_palettes=2
        )
        assert result["identical"]
        assert result["loop_cache"]["misses"] == 0
        assert result["loop_cache"]["hits"] > 0

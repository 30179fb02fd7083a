"""The perf-regression harness behind ``python -m repro bench``.

Times every stage of the paper pipeline (profile / calibrate / baseline /
select / schedule / measure) per benchmark, from a cold loop cache, and
writes a machine-readable ``BENCH_pipeline.json`` — the repo's perf
trajectory.  A checked-in baseline plus :func:`check_regression` lets CI
fail when the pipeline regresses by more than a tolerance.

Cross-machine comparability: wall-clock on a shared CI runner is noisy
and machine-dependent, so every report carries a ``calibration_s`` — the
time of a fixed pure-Python workload on the same interpreter — and
regressions are judged on the *normalized* total
(``total_s / calibration_s``), which cancels most of the machine-speed
difference between the baseline host and the runner.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SCHEMA = 1

#: Stage-name buckets reported per benchmark, in pipeline order.
STAGE_ORDER = ("profile", "calibrate", "baseline", "select", "schedule", "measure")


def calibration_score(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python workload (machine-speed proxy).

    Best of ``rounds`` to shed scheduler noise; ~50 ms on a 2020 laptop.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1000003
        best = min(best, time.perf_counter() - started)
    return best


def time_benchmark(
    name: str,
    scale: float,
    options=None,
) -> Dict[str, object]:
    """Per-stage wall times of one benchmark's full pipeline run.

    The in-memory loop cache is cleared first, so the numbers reflect a
    single *uncached* experiment (the quantity this harness guards);
    repeated stages (the two profile/calibrate calibration passes)
    accumulate into one bucket per stage name.
    """
    from repro.pipeline import Experiment
    from repro.pipeline.cache import clear_loop_cache
    from repro.workloads import build_corpus, spec_profile

    clear_loop_cache()
    started = time.perf_counter()
    corpus = build_corpus(spec_profile(name), scale=scale)
    corpus_s = time.perf_counter() - started

    experiment = Experiment.paper(options)
    context = experiment.build_context(corpus)
    stages: Dict[str, float] = {}
    total = corpus_s
    for stage in experiment.stages:
        stage_start = time.perf_counter()
        stage.run(context)
        elapsed = time.perf_counter() - stage_start
        stages[stage.name] = stages.get(stage.name, 0.0) + elapsed
        total += elapsed
    return {
        "benchmark": corpus.benchmark,
        "n_loops": len(corpus.loops),
        "corpus_s": corpus_s,
        "stages": {name: stages.get(name, 0.0) for name in STAGE_ORDER},
        "total_s": total,
        "ed2_ratio": context.evaluation.ed2_ratio,
    }


def run_pipeline_bench(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    options=None,
    warm_sweep: bool = True,
    trace_overhead: bool = True,
) -> Dict[str, object]:
    """The full harness: every benchmark, per-stage timings, metadata.

    ``warm_sweep`` appends the cold-vs-warm palette-sweep section (see
    :func:`run_warm_sweep_bench`) — the loop cache's regression guard.
    ``trace_overhead`` appends the span-cost microbench (see
    :func:`run_trace_overhead_bench`) — the guard keeping the tracing
    plumbing free when tracing is off.
    """
    from repro.workloads import SPEC2000_PROFILES, default_scale

    names = list(SPEC2000_PROFILES) if benchmarks is None else list(benchmarks)
    if scale is None:
        scale = default_scale()
    calibration = calibration_score()
    per_benchmark = {}
    for name in names:
        per_benchmark[name] = time_benchmark(name, scale, options)
    total = sum(entry["total_s"] for entry in per_benchmark.values())
    stage_totals = {
        stage: sum(entry["stages"][stage] for entry in per_benchmark.values())
        for stage in STAGE_ORDER
    }
    warm = (
        run_warm_sweep_bench(benchmarks=names, scale=scale)
        if warm_sweep
        else None
    )
    overhead = run_trace_overhead_bench() if trace_overhead else None
    return {
        **({"warm_sweep": warm} if warm is not None else {}),
        **({"trace_overhead": overhead} if overhead is not None else {}),
        "schema": SCHEMA,
        "kind": "pipeline",
        "generated_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "calibration_s": calibration,
        "benchmarks": per_benchmark,
        "stage_totals_s": stage_totals,
        "total_s": total,
        "normalized_total": total / calibration if calibration > 0 else None,
    }


def _sweep_option_sets(n_palettes: int = 3):
    """The frequency-palette sweep the warm bench replays.

    One option set per palette, everything else at paper defaults —
    the Figure 7 usage pattern the loop cache is built to accelerate.
    """
    from repro.machine.clocking import FrequencyPalette
    from repro.pipeline import ExperimentOptions
    from repro.scheduler import SchedulerOptions

    palettes = [FrequencyPalette.any_frequency()]
    for count in range(2, n_palettes + 1):
        palettes.append(FrequencyPalette.per_domain_uniform(count))
    return [
        ExperimentOptions(scheduler=SchedulerOptions(palette=palette))
        for palette in palettes[:n_palettes]
    ]


def run_warm_sweep_bench(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    n_palettes: int = 3,
) -> Dict[str, object]:
    """Cold-vs-warm palette sweep: the loop cache's headline number.

    Runs the same frequency-palette sweep twice.  The cold pass starts
    with an empty loop cache; the warm pass keeps it, so profile/schedule
    reassemble from loop artifacts without re-running the scheduler.
    Records the speedup, the loop-cache counters proving zero loops
    were re-scheduled warm, and whether the warm results are
    byte-identical to the cold ones (they must be).
    """
    from repro.pipeline import evaluate_suite
    from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
    from repro.pipeline.serialization import canonical_json
    from repro.workloads import (
        SPEC2000_PROFILES,
        build_corpus,
        default_scale,
        spec_profile,
    )

    names = list(SPEC2000_PROFILES) if benchmarks is None else list(benchmarks)
    if scale is None:
        scale = default_scale()
    corpora = [build_corpus(spec_profile(name), scale=scale) for name in names]
    option_sets = _sweep_option_sets(n_palettes)

    def sweep() -> List[str]:
        return [
            canonical_json(evaluate_suite(corpora, options).to_dict())
            for options in option_sets
        ]

    # Memory-only: an attached disk store would leak earlier state in.
    LOOP_CACHE.detach_store()
    clear_loop_cache(reset_stats=True)
    started = time.perf_counter()
    cold_docs = sweep()
    cold_s = time.perf_counter() - started

    before = LOOP_CACHE.stats()
    started = time.perf_counter()
    warm_docs = sweep()
    warm_s = time.perf_counter() - started
    after = LOOP_CACHE.stats()
    loop_counters = {
        counter: after[counter] - before[counter]
        for counter in ("hits", "misses", "disk_hits", "corrupt")
    }
    return {
        "scale": scale,
        "benchmarks": [corpus.benchmark for corpus in corpora],
        "n_palettes": len(option_sets),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
        "identical": warm_docs == cold_docs,
        "loop_cache": loop_counters,
    }


def run_trace_overhead_bench(
    iterations: int = 200_000, rounds: int = 3
) -> Dict[str, object]:
    """Cost of the ``span()`` context manager, traced and untraced.

    The distributed-tracing work rides on :func:`repro.telemetry.span`
    being near-free when tracing is off (the default for every
    pipeline run that nobody is watching).  This times three loops —
    empty, ``span()`` with tracing disabled, ``span()`` with tracing
    enabled — best of ``rounds`` each, and reports per-call costs; the
    regression gate watches the *disabled* path.
    """
    from repro.telemetry import (
        disable_tracing,
        enable_tracing,
        span,
        tracing_enabled,
    )

    def best_of(run) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return best

    def empty_loop() -> None:
        for _ in range(iterations):
            pass

    def span_loop() -> None:
        for _ in range(iterations):
            with span("bench_overhead"):
                pass

    was_enabled = tracing_enabled()
    try:
        disable_tracing()
        empty_s = best_of(empty_loop)
        disabled_s = best_of(span_loop)
        enable_tracing()
        enabled_s = best_of(span_loop)
    finally:
        enable_tracing() if was_enabled else disable_tracing()
    return {
        "iterations": iterations,
        "empty_s": empty_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_ns_per_call": disabled_s / iterations * 1e9,
        "enabled_ns_per_call": enabled_s / iterations * 1e9,
        "disabled_overhead_ns_per_call": max(0.0, disabled_s - empty_s)
        / iterations
        * 1e9,
    }


def check_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.25,
) -> List[str]:
    """Failure messages when ``current`` regressed past ``tolerance``.

    Compares calibration-normalized suite totals (see module docstring);
    an empty list means the gate passes.  Baselines recorded at another
    scale or benchmark set are rejected rather than silently compared.
    """
    failures: List[str] = []
    if baseline.get("scale") != current.get("scale"):
        return [
            f"baseline scale {baseline.get('scale')} != current "
            f"{current.get('scale')}; regenerate the baseline"
        ]
    if set(baseline.get("benchmarks", {})) != set(current.get("benchmarks", {})):
        return ["baseline and current cover different benchmarks"]
    base_norm = baseline.get("normalized_total")
    cur_norm = current.get("normalized_total")
    if not base_norm or not cur_norm:
        return ["missing normalized totals; regenerate both reports"]
    limit = base_norm * (1.0 + tolerance)
    if cur_norm > limit:
        failures.append(
            f"pipeline total regressed: normalized {cur_norm:.1f} > "
            f"baseline {base_norm:.1f} * (1 + {tolerance:.0%}) = {limit:.1f} "
            f"(raw {current['total_s']:.2f}s vs {baseline['total_s']:.2f}s)"
        )
    failures.extend(_check_warm_sweep(current, baseline, tolerance))
    failures.extend(_check_trace_overhead(current, baseline, tolerance))
    return failures


def _check_warm_sweep(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float,
) -> List[str]:
    """Warm-sweep gates: identity, zero re-schedules, warm-time trend.

    Only active when the baseline carries a ``warm_sweep`` section, so
    old baselines keep passing; once recorded, a current report without
    the section (or with a broken one) fails.
    """
    base_warm = baseline.get("warm_sweep")
    if not base_warm:
        return []
    cur_warm = current.get("warm_sweep")
    if not cur_warm:
        return ["baseline records a warm_sweep section but current does not"]
    failures: List[str] = []
    if not cur_warm.get("identical", False):
        failures.append(
            "warm sweep results are not byte-identical to the cold sweep"
        )
    misses = (cur_warm.get("loop_cache") or {}).get("misses", 0)
    if misses:
        failures.append(
            f"warm sweep re-scheduled {misses} loop(s); the loop cache "
            "must serve every one"
        )
    base_cal = baseline.get("calibration_s")
    cur_cal = current.get("calibration_s")
    if base_cal and cur_cal:
        base_norm = base_warm["warm_s"] / base_cal
        cur_norm = cur_warm["warm_s"] / cur_cal
        limit = base_norm * (1.0 + tolerance)
        if cur_norm > limit:
            failures.append(
                f"warm sweep regressed: normalized {cur_norm:.1f} > "
                f"baseline {base_norm:.1f} * (1 + {tolerance:.0%}) = "
                f"{limit:.1f} (raw {cur_warm['warm_s']:.2f}s vs "
                f"{base_warm['warm_s']:.2f}s)"
            )
    return failures


def _check_trace_overhead(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float,
) -> List[str]:
    """Trace-overhead gate: the disabled span path must stay near-free.

    Section-gated like the warm sweep, so pre-tracing baselines keep
    passing.  The compared quantity is the whole disabled-path loop
    time over the calibration time — dimensionless, so it cancels
    machine speed — with doubled tolerance: a sub-microsecond
    microbench is noisier than the minutes-long suite total.
    """
    base_overhead = baseline.get("trace_overhead")
    if not base_overhead:
        return []
    cur_overhead = current.get("trace_overhead")
    if not cur_overhead:
        return [
            "baseline records a trace_overhead section but current does not"
        ]
    base_cal = baseline.get("calibration_s")
    cur_cal = current.get("calibration_s")
    if not base_cal or not cur_cal:
        return []
    base_iters = base_overhead.get("iterations") or 1
    cur_iters = cur_overhead.get("iterations") or 1
    base_norm = base_overhead["disabled_s"] / base_iters / base_cal
    cur_norm = cur_overhead["disabled_s"] / cur_iters / cur_cal
    limit = base_norm * (1.0 + 2.0 * tolerance)
    if cur_norm > limit:
        return [
            f"tracing-disabled span() path regressed: "
            f"{cur_overhead['disabled_ns_per_call']:.0f} ns/call vs "
            f"baseline {base_overhead['disabled_ns_per_call']:.0f} ns/call "
            f"(normalized {cur_norm:.3g} > {base_norm:.3g} * "
            f"(1 + {2.0 * tolerance:.0%}))"
        ]
    return []


def write_report(data: Dict[str, object], path) -> Path:
    """Write a report as sorted, indented JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target


def render_report(data: Dict[str, object]) -> str:
    """Human-readable table of a report (stderr companion to the JSON)."""
    from repro.reporting import render_table

    rows = []
    for name, entry in data["benchmarks"].items():
        stages = entry["stages"]
        rows.append(
            (
                name,
                *(f"{stages[stage]:.3f}" for stage in STAGE_ORDER),
                f"{entry['total_s']:.3f}",
            )
        )
    rows.append(
        (
            "TOTAL",
            *(
                f"{data['stage_totals_s'][stage]:.3f}"
                for stage in STAGE_ORDER
            ),
            f"{data['total_s']:.3f}",
        )
    )
    table = render_table(
        ["benchmark", *STAGE_ORDER, "total"],
        rows,
        title=(
            f"pipeline stage timings (s) at scale {data['scale']}, "
            f"calibration {data['calibration_s'] * 1e3:.1f} ms"
        ),
    )
    warm = data.get("warm_sweep")
    if warm:
        counters = warm["loop_cache"]
        table += (
            f"\nwarm palette sweep ({warm['n_palettes']} palettes): "
            f"{warm['cold_s']:.2f}s cold -> {warm['warm_s']:.2f}s warm "
            f"({warm['speedup']:.1f}x), {counters['hits']} loop hit(s), "
            f"{counters['misses']} miss(es), "
            + ("byte-identical" if warm["identical"] else "RESULTS DIFFER")
        )
    overhead = data.get("trace_overhead")
    if overhead:
        table += (
            f"\nspan() overhead: {overhead['disabled_ns_per_call']:.0f} ns/"
            f"call disabled, {overhead['enabled_ns_per_call']:.0f} ns/call "
            f"enabled ({overhead['iterations']} iterations)"
        )
    return table

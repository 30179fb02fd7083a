"""The in-process workloads: ``cold_eval`` and ``warm_sweep``.

Both drive the public ``Experiment`` API directly.  Cache state is
reached only through entry points that survive the planned removal of
the corpus-level stage cache: ``clear_loop_cache`` and *tagged
machines* — the paper machine under a tag that the corpus-level memo
hashes (it keys on the machine's ``repr``) but the per-loop cache does
not (it keys on the ISA and cluster-shape facets only).  A new tag
therefore starts every corpus-level artifact cold while leaving per-loop
artifacts reachable.  No run passes ``simulate=``, so each measures the
default metering path.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.machine.machine import MachineDescription, paper_machine
from repro.pipeline import Experiment
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.telemetry import render_prometheus

from perfbench.common import (
    Checker,
    PALETTES,
    Point,
    benchmarks,
    cold_points,
    counter_delta,
    latency_metrics,
    median,
    peak_rss_mb,
    prometheus_samples,
    warm_points,
)
from perfbench.layers import Tracer

#: Set-ups per untraced ``cold_eval`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Upper bound on timed passes, so a much faster program still ends.
MAX_PASSES = 100


@dataclass(frozen=True)
class TaggedMachine(MachineDescription):
    """The paper machine plus a tag only the corpus-level memo sees."""

    tag: str = ""


def tagged_machine(buses: int, tag: str) -> TaggedMachine:
    base = paper_machine(n_buses=buses)
    return TaggedMachine(
        clusters=base.clusters,
        interconnect=base.interconnect,
        memory=base.memory,
        isa=base.isa,
        tag=tag,
    )


def evaluate(point: Point, corpus, tag: str):
    experiment = Experiment.paper(point.options())
    return experiment.with_machine(tagged_machine(point.buses, tag)).run(corpus)


class Run:
    """State of one in-process run: checker, seeded order, tag source."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.rng = random.Random(seed)
        self.trace = trace
        self.checker = Checker()
        self._tags = itertools.count()

    def tag(self, kind: str) -> str:
        return f"{kind}-{next(self._tags)}"

    def run_pass(
        self,
        points: List[Point],
        corpora: Dict[str, object],
        tag: str,
        cache_rule,
        tracer: Optional[Tracer] = None,
        rerequests: Optional[List[float]] = None,
    ) -> List[float]:
        """Evaluate ``points`` once, in seeded order; returns latencies.

        ``cache_rule(hits, misses)`` returns "" when the loop-cache
        traffic of one evaluation is as the workload requires, or the
        reason it is not (the evaluation then counts as failed).  With
        ``rerequests``, each point is requested again right after its
        evaluation, under the same tag: everything it needs is cached,
        so that latency (appended to ``rerequests``) is the in-process
        path for a point already settled.
        """
        order = list(points)
        self.rng.shuffle(order)
        latencies = []
        for point in order:
            before = LOOP_CACHE.stats()
            outcome = self._evaluate(point, corpora[point.id], tag, tracer)
            if outcome is None:
                continue
            latencies.append(outcome[0])
            after = LOOP_CACHE.stats()
            hits = (after["hits"] - before["hits"]) + (
                after["disk_hits"] - before["disk_hits"]
            )
            misses = after["misses"] - before["misses"]
            self.checker.check(point, outcome[1], cache_rule(hits, misses))
            if rerequests is not None:
                again = self._evaluate(point, corpora[point.id], tag, None)
                if again is not None:
                    rerequests.append(again[0])
                    self.checker.check(point, again[1])
        return latencies

    def _evaluate(self, point: Point, corpus, tag: str, tracer):
        """``(latency, evaluation dict)``, or None if the evaluation raised."""
        scope = tracer.root() if tracer is not None else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with scope:
                evaluation = evaluate(point, corpus, tag)
        except Exception as error:  # counted, reported, run goes on
            self.checker.fail(f"{point.id}: {error!r}")
            return None
        return time.perf_counter() - started, evaluation.to_dict()


def _cold_rule(hits: int, misses: int) -> str:
    if hits == 0 and misses > 0:
        return ""
    return f"cold evaluation saw {hits} loop-cache hit(s), {misses} miss(es)"


def _warm_rule(hits: int, misses: int) -> str:
    return "" if misses == 0 else f"warm evaluation missed the loop cache {misses}x"


def _any_traffic(hits: int, misses: int) -> str:
    return ""


def _corpora_per_point(points: List[Point]) -> Dict[str, object]:
    """One fresh corpus object per point: nothing is shared between them."""
    return {point.id: point.corpus() for point in points}


def _corpora_per_benchmark(points: List[Point]) -> Dict[str, object]:
    """One corpus per benchmark, shared by that benchmark's option sets."""
    built: Dict[str, object] = {}
    corpora = {}
    for point in points:
        if point.benchmark not in built:
            built[point.benchmark] = point.corpus()
        corpora[point.id] = built[point.benchmark]
    return corpora


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def cold_eval(seed: int, seconds: float, trace: bool, quick: bool):
    """First evaluations: every pass re-schedules every loop."""
    run = Run(seed, trace)
    points = cold_points(benchmarks(quick))

    def set_up():
        corpora = _corpora_per_point(points)
        # One throwaway evaluation loads lazily imported code paths, so
        # the first timed evaluation does not pay for them.
        clear_loop_cache()
        warm_up = points[0]
        run.checker.check(
            warm_up, evaluate(warm_up, warm_up.corpus(), run.tag("setup")).to_dict()
        )
        return corpora

    def timed_pass(corpora, tracer=None, rerequests=None):
        clear_loop_cache()
        return run.run_pass(
            points, corpora, run.tag("cold"), _cold_rule, tracer, rerequests
        )

    return _drive(
        run, seconds, set_up, timed_pass, _corpora_per_point, points,
        setup_repeats=1 if trace else SETUP_REPEATS, min_passes=2,
        rebuild_each_pass=True,
    )


def warm_sweep(seed: int, seconds: float, trace: bool, quick: bool):
    """A palette sweep answered from a loop cache filled in set-up.

    Set-up fills the loop cache one palette at a time, so its three
    repetitions are the three palette fills (a full fill is ~30 cold
    evaluations; filling three times over would triple the run).
    """
    run = Run(seed, trace)
    points = warm_points(benchmarks(quick))
    palettes = [
        [point for point in points if point.palette == palette] for palette in PALETTES
    ]
    corpora: Dict[str, object] = {}

    def set_up():
        if not corpora:
            clear_loop_cache()
            corpora.update(_corpora_per_benchmark(points))
        run.run_pass(palettes.pop(0), corpora, run.tag("fill"), _any_traffic)
        return corpora

    def timed_pass(corpora, tracer=None, rerequests=None):
        return run.run_pass(
            points, corpora, run.tag("warm"), _warm_rule, tracer, rerequests
        )

    return _drive(
        run, seconds, set_up, timed_pass, _corpora_per_benchmark, points,
        setup_repeats=len(PALETTES), min_passes=1, rebuild_each_pass=False,
    )


def _drive(
    run: Run,
    seconds: float,
    set_up,
    timed_pass,
    fresh_corpora,
    points: List[Point],
    setup_repeats: int,
    min_passes: int,
    rebuild_each_pass: bool,
):
    """Set up, then time whole passes until ``seconds`` have elapsed
    (at least ``min_passes``, so the tail has ten samples beyond it).
    Re-requests of settled points interleave with the evaluations, so
    both see the same stretch of host time; ``evals_per_s`` counts only
    time spent evaluating."""
    setup_times = []
    for _ in range(setup_repeats):
        started = time.perf_counter()
        corpora = set_up()
        setup_times.append(time.perf_counter() - started)

    if run.trace:
        return _traced(run, corpora, timed_pass, fresh_corpora, points)

    latencies: List[float] = []
    hits: List[float] = []
    timed = 0.0
    passes = 0
    while passes < min_passes or (timed < seconds and passes < MAX_PASSES):
        if passes and rebuild_each_pass:
            corpora = fresh_corpora(points)
        started = time.perf_counter()
        latencies.extend(timed_pass(corpora, rerequests=hits))
        timed += time.perf_counter() - started
        passes += 1

    metrics = {
        "setup_s": median(setup_times),
        "evals_per_s": len(latencies) / sum(latencies),
        **latency_metrics(latencies, f"{passes} timed pass(es)"),
        "hit_p50_ms": median(hits) * 1e3,
        **run.checker.quality(),
        "peak_rss_mb": peak_rss_mb(),
    }
    return run.checker, metrics


def _traced(run: Run, corpora, timed_pass, fresh_corpora, points):
    """One untraced pass, then one traced pass of the same points."""
    untraced = timed_pass(corpora)
    loops_before = LOOP_CACHE.stats()
    text_before = render_prometheus()
    with Tracer() as tracer:
        corpora = fresh_corpora(points)
        traced = timed_pass(corpora, tracer)
    loops_after = LOOP_CACHE.stats()
    text_after = render_prometheus()

    metrics = tracer.metrics()
    metrics["workloads.loops"] = sum(
        len(corpus) for corpus in {id(c): c for c in corpora.values()}.values()
    )
    delta = {name: loops_after[name] - loops_before[name] for name in loops_after}
    lookups = delta["hits"] + delta["disk_hits"] + delta["misses"]
    for name in ("hits", "misses", "disk_hits", "corrupt"):
        metrics[f"pipeline.cache.loop_{name}"] = delta[name]
    metrics["pipeline.cache.loop_hit_ratio"] = (
        (delta["hits"] + delta["disk_hits"]) / lookups if lookups else 0.0
    )
    metrics.update(stage_cache_delta(text_before, text_after))
    metrics.update(scheduler_counters(text_before, text_after))
    metrics["telemetry.trace_overhead_ratio"] = sum(traced) / sum(untraced)
    metrics["telemetry.attributed_ratio"] = tracer.attributed_ratio or 0.0
    print(
        f"traced pass: {len(traced)} evaluations, "
        f"{metrics['telemetry.attributed_ratio']:.1%} of evaluation time in "
        f"named layers, overhead x{metrics['telemetry.trace_overhead_ratio']:.3f}",
        file=sys.stderr,
    )
    return run.checker, metrics


#: Stage names under which the per-loop cache counts its events.
LOOP_STAGES = ('stage="profile_loop"', 'stage="schedule_loop"')


def stage_cache_delta(before: str, after: str) -> Dict[str, float]:
    """Corpus-level stage-cache hits and misses, from the metrics registry.

    Read from ``repro_stage_cache_events_total`` rather than the cache
    object, so the numbers simply drop to 0 once that cache is gone.
    """
    family = "repro_stage_cache_events_total"
    out = {}
    for event in ("hits", "misses"):
        total = 0.0
        for text, sign in ((after, 1), (before, -1)):
            for labels, value in prometheus_samples(text, family).items():
                if f'event="{event}"' in labels and not any(
                    stage in labels for stage in LOOP_STAGES
                ):
                    total += sign * value
        out[f"pipeline.cache.stage_{event}"] = total
    return out


def scheduler_counters(before: str, after: str) -> Dict[str, float]:
    """IT-search effort from the ``repro_scheduler_*`` counters."""
    candidates = counter_delta(before, after, "repro_scheduler_it_candidates_total")
    loops = counter_delta(before, after, "repro_scheduler_loops_total")
    return {
        "scheduler.it_candidates": candidates,
        "scheduler.it_retries": counter_delta(
            before, after, "repro_scheduler_it_retries_total"
        ),
        "scheduler.first_it_ratio": loops / candidates if candidates else 0.0,
    }

"""The event simulator is the oracle for the analytic power meter.

``PowerMeter.measure_loop`` meters every schedule from its analytic
counts; nothing in the pipeline executes schedules any more.  This
harness executes each heterogeneous schedule the pipeline metered
through :class:`~repro.sim.executor.LoopExecutor` — which re-checks
issue slots, bus occupancy, sync-queue gates and operand readiness
event by event — and demands that the simulated event counts and time
*equal* (not approximate) what the meter fed the energy model.

The pipeline meters :class:`~repro.pipeline.stages.ScheduleSummary`
values, not live schedules, and its energy model derives a point's
scalings once for all loops; the harness also holds both to the
plain computation they replace: metering the live schedule, and a
fresh model per estimate.  The selector prices structures as plain
numbers and builds a result for the winner only, so ``select`` is held
to the first entry of ``enumerate``.

The sweep covers every bundled machine pack (multi-bus and
palette-constrained packs exercise sync-queue penalties the paper
machine may not hit) and the paper machine at one and two buses x the
ten SPEC2000 profiles plus the two stress workloads.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.pipeline import Experiment
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json, schedule_to_dict
from repro.pipeline.stages import ScheduleSummary
from repro.power.energy import EnergyModel
from repro.scenarios import bundled_pack_paths, find_pack
from repro.sim.executor import LoopExecutor
from repro.sim.power_meter import PowerMeter
from repro.vfs.selector import ConfigurationSelector
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02

PACKS = ("paper-1bus", "paper-2bus", "wide-issue", "low-power", "embedded")

#: Every machine the sweep meters on: the packs, by file, and the paper
#: machine built from the options.
MACHINES = PACKS + ("paper@1", "paper@2")

WORKLOADS = tuple(SPEC2000_PROFILES) + ("stress.deep", "stress.wide")


class _RecordingModel:
    """An energy model proxy that remembers the counts it was given."""

    def __init__(self, model):
        self._model = model
        self.calls = []

    def estimate(self, point, counts, exec_time_ns):
        self.calls.append((counts, exec_time_ns))
        return self._model.estimate(point, counts, exec_time_ns)


def _metered_inputs(meter, schedule, point, iterations):
    """The (counts, time) ``measure_loop`` hands the energy model."""
    recorder = _RecordingModel(meter.model)
    PowerMeter(recorder).measure_loop(schedule, point, iterations)
    (inputs,) = recorder.calls
    return inputs


#: The stress pack's workloads, resolved from the pack itself.
STRESS = {spec.name: spec for spec in find_pack("stress").workloads}


def _options(machine: str) -> ExperimentOptions:
    if machine.startswith("paper@"):
        return ExperimentOptions(n_buses=int(machine.split("@")[1]))
    return ExperimentOptions(machine_file=str(bundled_pack_paths()[machine]))


def _corpus(workload: str):
    spec = STRESS[workload] if workload in STRESS else spec_profile(workload)
    return build_corpus(spec, scale=SCALE)


@pytest.fixture(scope="module", autouse=True)
def _release_runs():
    yield
    _run.cache_clear()


@functools.lru_cache(maxsize=None)
def _run(machine: str, workload: str):
    """One evaluation's corpus and context, shared by the tests below."""
    corpus = _corpus(workload)
    return corpus, Experiment.paper(_options(machine)).run_context(corpus)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", MACHINES)
def test_simulator_reproduces_metered_counts(machine, workload):
    corpus, context = _run(machine, workload)
    meter = context.meter
    point = context.heterogeneous_selection.point
    schedules = context.heterogeneous_schedules
    summaries = context.heterogeneous_summaries
    assert len(schedules) == len(summaries) == len(corpus.loops)
    for loop in corpus.loops:
        schedule = schedules[loop.name]
        summary = summaries[loop.name]
        assert summary == ScheduleSummary.from_schedule(schedule), loop.name
        simulated = LoopExecutor(schedule).run(loop.trip_count)
        counts, exec_time_ns = _metered_inputs(
            meter, summary, point, loop.trip_count
        )
        assert simulated.counts == counts, loop.name
        assert simulated.exec_time_ns == exec_time_ns, loop.name
        assert _metered_inputs(meter, schedule, point, loop.trip_count) == (
            counts,
            exec_time_ns,
        ), loop.name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", MACHINES)
def test_summary_meters_like_the_live_schedule(machine, workload):
    """At all three metered points, with the loop's weight and re-timing."""
    corpus, context = _run(machine, workload)
    meter = context.meter
    points = (
        context.reference_scheduler.reference_point(),
        context.baseline_selection.point,
        context.heterogeneous_selection.point,
    )
    for point in points:
        for loop in corpus.loops:
            schedule = context.heterogeneous_schedules[loop.name]
            summary = ScheduleSummary.from_schedule(schedule)
            for time_scale in (1.0, 1.25):
                assert meter.measure_loop(
                    summary,
                    point,
                    loop.trip_count,
                    loop.weight,
                    time_scale,
                ) == meter.measure_loop(
                    schedule, point, loop.trip_count, loop.weight, time_scale
                ), loop.name


@pytest.mark.parametrize("machine", MACHINES)
def test_energy_model_scalings_match_a_fresh_model(machine):
    """Equal-but-distinct points and alternating points price as fresh."""
    corpus, context = _run(machine, WORKLOADS[0])
    model = context.meter.model
    points = (
        context.reference_scheduler.reference_point(),
        context.baseline_selection.point,
        context.heterogeneous_selection.point,
    )
    # Each point's copy: equal in value, distinct in identity.
    copies = tuple(replace(point) for point in points)
    assert all(c == p and c is not p for c, p in zip(copies, points))
    recorder = _RecordingModel(model)
    for loop in corpus.loops:
        PowerMeter(recorder).measure_loop(
            context.heterogeneous_summaries[loop.name],
            points[2],
            loop.trip_count,
            loop.weight,
        )
    inputs = recorder.calls
    sequences = {
        "alternating": [points[i % 3] for i in range(3 * len(inputs))],
        "equal-but-distinct": [
            (points, copies)[i % 2][k] for k in range(3) for i in range(len(inputs))
        ],
    }
    for name, sequence in sequences.items():
        for i, point in enumerate(sequence):
            counts, exec_time_ns = inputs[i % len(inputs)]
            fresh = EnergyModel(model.units, context.technology)
            assert model.estimate(point, counts, exec_time_ns) == fresh.estimate(
                point, counts, exec_time_ns
            ), (name, i)


def test_energy_model_derives_a_points_scalings_once():
    corpus, context = _run("paper@1", WORKLOADS[0])
    model = EnergyModel(context.meter.model.units, context.technology)
    derived = []
    deltas = model._deltas
    model._deltas = lambda point: derived.append(point) or deltas(point)
    meter = PowerMeter(model)
    for point in (
        context.reference_scheduler.reference_point(),
        context.heterogeneous_selection.point,
    ):
        for loop in corpus.loops:
            meter.measure_loop(
                context.heterogeneous_summaries[loop.name],
                point,
                loop.trip_count,
                loop.weight,
            )
    assert len(corpus.loops) > 1
    assert len(derived) == 2


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", MACHINES)
def test_select_is_the_first_enumerated(machine, workload):
    _corpus_, context = _run(machine, workload)
    selector = ConfigurationSelector(
        context.machine, context.technology, context.options.design_space
    )
    selected = selector.select(context.profile, context.units)
    ranked = selector.enumerate(context.profile, context.units)
    assert selected == ranked[0]
    assert selected == context.heterogeneous_selection


@pytest.mark.parametrize("machine", ("paper@1", "paper@2", "wide-issue"))
def test_schedule_stage_answers_alike_from_memory_disk_and_compute(
    machine, tmp_path
):
    """The evaluation, schedules and summaries are byte-identical."""
    corpus = _corpus("swim")
    experiment = Experiment.paper(_options(machine))
    clear_loop_cache(reset_stats=True)
    LOOP_CACHE.attach_store(tmp_path / "loops")
    runs = {}
    try:
        for source in ("compute", "memory", "disk"):
            if source == "disk":
                clear_loop_cache()  # memory gone, disk kept
            before = LOOP_CACHE.info()["by_stage"].get("schedule_loop", {})
            context = experiment.run_context(corpus)
            after = LOOP_CACHE.info()["by_stage"]["schedule_loop"]
            event = {"compute": "misses", "memory": "hits", "disk": "disk_hits"}
            assert after[event[source]] - before.get(event[source], 0) == len(
                corpus.loops
            ), source
            runs[source] = (
                canonical_json(context.evaluation.to_dict()),
                [
                    canonical_json(
                        schedule_to_dict(context.heterogeneous_schedules[loop.name])
                    )
                    for loop in corpus.loops
                ],
                [context.heterogeneous_summaries[loop.name] for loop in corpus.loops],
            )
    finally:
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
    assert runs["memory"] == runs["compute"]
    assert runs["disk"] == runs["compute"]

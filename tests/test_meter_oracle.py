"""The event simulator is the oracle for the analytic power meter.

``PowerMeter.measure_loop`` meters every schedule from its analytic
counts; nothing in the pipeline executes schedules any more.  This
harness executes each heterogeneous schedule the pipeline metered
through :class:`~repro.sim.executor.LoopExecutor` — which re-checks
issue slots, bus occupancy, sync-queue gates and operand readiness
event by event — and demands that the simulated event counts and time
*equal* (not approximate) what the meter fed the energy model.

The sweep covers every bundled machine pack (multi-bus and
palette-constrained packs exercise sync-queue penalties the paper
machine may not hit) x the ten SPEC2000 profiles plus the two stress
workloads.
"""

from __future__ import annotations

import pytest

from repro.pipeline import Experiment
from repro.pipeline.experiment import ExperimentOptions
from repro.scenarios import bundled_pack_paths, find_pack
from repro.sim.executor import LoopExecutor
from repro.sim.power_meter import PowerMeter
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02

PACKS = ("paper-1bus", "paper-2bus", "wide-issue", "low-power", "embedded")

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


@pytest.fixture(scope="module", autouse=True)
def _stress_workloads():
    find_pack("stress").register()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("pack_name", PACKS)
def test_simulator_reproduces_metered_counts(pack_name, workload):
    options = ExperimentOptions(
        machine_file=str(bundled_pack_paths()[pack_name])
    )
    corpus = build_corpus(spec_profile(workload), scale=SCALE)
    context = Experiment.paper(options).run_context(corpus)
    meter = context.meter
    point = context.heterogeneous_selection.point
    schedules = context.heterogeneous_schedules
    assert len(schedules) == len(corpus.loops)
    for loop in corpus.loops:
        schedule = schedules[loop.name]
        simulated = LoopExecutor(schedule).run(loop.trip_count)
        counts, exec_time_ns = _metered_inputs(
            meter, schedule, point, loop.trip_count
        )
        assert simulated.counts == counts, loop.name
        assert simulated.exec_time_ns == exec_time_ns, loop.name

"""Tests for the power meter."""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.machine.operating_point import DomainSetting
from repro.power.breakdown import EnergyBreakdown
from repro.power.calibration import calibrate
from repro.power.energy import EnergyModel
from repro.power.technology import TechnologyModel
from repro.scheduler import HeterogeneousModuloScheduler, HomogeneousModuloScheduler
from repro.sim.executor import LoopExecutor
from repro.sim.power_meter import MeasuredExecution, PowerMeter
from repro.pipeline.profiling import profile_corpus
from repro.workloads.corpus import Corpus
from tests.conftest import build_recurrence_loop, build_tiny_loop


@pytest.fixture
def meter(machine, technology):
    corpus = Corpus("test", [build_recurrence_loop(), build_tiny_loop()])
    profile, _ = profile_corpus(corpus, HomogeneousModuloScheduler(machine, technology))
    units = calibrate(
        profile,
        technology.reference_setting,
        EnergyBreakdown.paper_baseline(),
        machine.n_clusters,
    )
    return PowerMeter(EnergyModel(units, technology))


class TestMeasureLoop:
    def test_simulated_equals_analytic(self, machine, het_point, meter):
        loop = build_recurrence_loop()
        schedule = HeterogeneousModuloScheduler(machine).schedule(loop, het_point)
        simulated = LoopExecutor(schedule).run(100)
        metered = meter.measure_loop(schedule, het_point, 100)
        assert simulated.exec_time_ns == metered.exec_time_ns
        assert metered.energy == meter.model.estimate(
            het_point, simulated.counts, simulated.exec_time_ns
        )

    def test_invocations_scale(self, machine, het_point, meter):
        loop = build_recurrence_loop()
        schedule = HeterogeneousModuloScheduler(machine).schedule(loop, het_point)
        once = meter.measure_loop(schedule, het_point, 100, invocations=1)
        thrice = meter.measure_loop(schedule, het_point, 100, invocations=3)
        assert thrice.exec_time_ns == pytest.approx(3 * once.exec_time_ns)
        assert thrice.energy.total == pytest.approx(3 * once.energy.total)

    def test_ed2_property(self, machine, het_point, meter):
        loop = build_recurrence_loop()
        schedule = HeterogeneousModuloScheduler(machine).schedule(loop, het_point)
        measured = meter.measure_loop(schedule, het_point, 100)
        assert measured.ed2 == pytest.approx(
            measured.energy.total * measured.exec_time_ns**2
        )
        assert measured.edp == pytest.approx(
            measured.energy.total * measured.exec_time_ns
        )


class TestMeasureProgram:
    def test_aggregation_adds(self, machine, het_point, meter):
        loop = build_recurrence_loop()
        schedule = HeterogeneousModuloScheduler(machine).schedule(loop, het_point)
        single = meter.measure_loop(schedule, het_point, 100)
        total = meter.measure_program([single, single])
        assert total.exec_time_ns == pytest.approx(2 * single.exec_time_ns)
        assert total.energy.total == pytest.approx(2 * single.energy.total)

    def test_empty_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.measure_program([])

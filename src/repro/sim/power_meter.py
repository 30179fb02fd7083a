"""Metering modulo schedules into measured energy/ED^2.

:meth:`PowerMeter.measure_loop` meters a schedule with its analytic
counts: per-iteration energy units, bus copies and memory accesses times
the trip count, and ``(N - 1) * IT + it_length`` for time.  The schedule
was legality-checked when it was built (or restored from the loop
cache's disk layer), so this is the one measurement path: the pipeline
meters the reference point, the optimum-homogeneous baseline (re-timed
by ``time_scale``) and the heterogeneous point through it, each from
the loops' schedule summaries.  The
discrete-event simulator (:class:`~repro.sim.executor.LoopExecutor`)
derives the same numbers by executing the schedule; the tests use it as
the oracle for this meter over every bundled machine pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.machine.operating_point import OperatingPoint
from repro.power.energy import EnergyEstimate, EnergyModel, EventCounts
from repro.power.metrics import ed2
from repro.scheduler.schedule import Schedule

if TYPE_CHECKING:
    from repro.pipeline.stages import ScheduleSummary


@dataclass(frozen=True)
class MeasuredExecution:
    """Measured energy, time and ED^2 of one (or many) executions."""

    energy: EnergyEstimate
    exec_time_ns: float

    @property
    def ed2(self) -> float:
        """Energy-delay-squared of the measured execution."""
        return ed2(self.energy.total, self.exec_time_ns)

    @property
    def edp(self) -> float:
        """Energy-delay product."""
        return self.energy.total * self.exec_time_ns

    def ratios_to(
        self, baseline: "MeasuredExecution"
    ) -> Tuple[float, float, float]:
        """(ED^2, energy, time) of this execution over ``baseline``.

        The one definition of the Figure 6 ratios: every report, query
        and service summary reads them through here.
        """
        return (
            self.ed2 / baseline.ed2,
            self.energy.total / baseline.energy.total,
            self.exec_time_ns / baseline.exec_time_ns,
        )


class PowerMeter:
    """Applies the calibrated energy model to metered schedules."""

    def __init__(self, model: EnergyModel):
        self._model = model

    @property
    def model(self) -> EnergyModel:
        """The calibrated energy model in use."""
        return self._model

    # ------------------------------------------------------------------
    def measure_loop(
        self,
        schedule: Union[Schedule, "ScheduleSummary"],
        point: OperatingPoint,
        iterations: float,
        invocations: float = 1.0,
        time_scale: float = 1.0,
    ) -> MeasuredExecution:
        """Meter one (validated) scheduled loop with its analytic counts.

        ``schedule`` is a live schedule or its
        :class:`~repro.pipeline.stages.ScheduleSummary` (the same
        numbers).  ``invocations`` scales the result by the number of
        times the loop is entered (each entry runs ``iterations``
        iterations).  ``time_scale`` re-times a homogeneous schedule to
        another cycle time; it multiplies last, so ``1.0`` leaves the
        time exactly as metered.
        """
        counts = EventCounts(
            cluster_energy_units=tuple(
                u * iterations * invocations
                for u in schedule.cluster_energy_units()
            ),
            n_comms=schedule.comms_per_iteration * iterations * invocations,
            n_mem_accesses=(
                schedule.mem_accesses_per_iteration * iterations * invocations
            ),
        )
        total_time = schedule.execution_time(iterations) * invocations * time_scale
        energy = self._model.estimate(point, counts, total_time)
        return MeasuredExecution(energy=energy, exec_time_ns=total_time)

    def measure_program(
        self, measurements: Sequence[MeasuredExecution]
    ) -> MeasuredExecution:
        """Aggregate per-loop measurements into a whole-program figure.

        Loops execute sequentially, so times and energies both add.
        """
        if not measurements:
            raise SimulationError("cannot aggregate zero measurements")
        total_time = sum(m.exec_time_ns for m in measurements)
        energy = EnergyEstimate(
            cluster_dynamic=sum(m.energy.cluster_dynamic for m in measurements),
            icn_dynamic=sum(m.energy.icn_dynamic for m in measurements),
            cache_dynamic=sum(m.energy.cache_dynamic for m in measurements),
            cluster_static=sum(m.energy.cluster_static for m in measurements),
            icn_static=sum(m.energy.icn_static for m in measurements),
            cache_static=sum(m.energy.cache_static for m in measurements),
        )
        return MeasuredExecution(energy=energy, exec_time_ns=total_time)

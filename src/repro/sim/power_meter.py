"""Metering modulo schedules into measured energy/ED^2.

:meth:`PowerMeter.measure_loop` meters a schedule with its analytic
counts: per-iteration energy units, bus copies and memory accesses times
the trip count, and ``(N - 1) * IT + it_length`` for time.  The schedule
was legality-checked when it was built (or restored from the loop
cache's disk layer), so this is the one measurement path.  The
discrete-event simulator (:class:`~repro.sim.executor.LoopExecutor`)
derives the same numbers by executing the schedule; the tests use it as
the oracle for this meter over every bundled machine pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import SimulationError
from repro.machine.operating_point import OperatingPoint
from repro.power.energy import EnergyEstimate, EnergyModel, EventCounts
from repro.power.metrics import ed2
from repro.scheduler.schedule import Schedule


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
        schedule: Schedule,
        point: OperatingPoint,
        iterations: float,
        invocations: float = 1.0,
    ) -> MeasuredExecution:
        """Meter one (validated) scheduled loop with its analytic counts.

        ``invocations`` scales the result by the number of times the loop
        is entered (each entry runs ``iterations`` iterations).
        """
        counts = EventCounts(
            cluster_energy_units=tuple(
                u * iterations for u in schedule.cluster_energy_units()
            ),
            n_comms=schedule.comms_per_iteration * iterations,
            n_mem_accesses=schedule.mem_accesses_per_iteration * iterations,
        )
        time_per_entry = schedule.execution_time(iterations)

        scaled = EventCounts(
            cluster_energy_units=tuple(
                u * invocations for u in counts.cluster_energy_units
            ),
            n_comms=counts.n_comms * invocations,
            n_mem_accesses=counts.n_mem_accesses * invocations,
        )
        total_time = time_per_entry * invocations
        energy = self._model.estimate(point, scaled, total_time)
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

"""Metering modulo schedules into measured energy/ED^2.

:meth:`PowerMeter.measure_loops` meters a corpus's schedules with their
analytic counts (:func:`loop_events`): per-iteration energy units, bus
copies and memory accesses times the trip count and the entry count,
and ``(N - 1) * IT + it_length`` per entry for time.  It prices every
loop with the one energy formula (:func:`~repro.power.energy.energy_terms`)
on plain numbers and sums the six components and the time over the
loops as :meth:`PowerMeter.measure_program` sums measurements, in one
walk per corpus; several points (each with a ``time_scale`` re-timing
the schedules) share the walk.  The schedules were legality-checked
when they were built (or restored from the loop cache's disk layer), so
this is the one measurement path: the pipeline meters the reference
point and the optimum-homogeneous baseline in one walk over the
reference summaries, and the heterogeneous point in another, and
:meth:`PowerMeter.measure_loop` is its one-loop case.  The
discrete-event simulator (:class:`~repro.sim.executor.LoopExecutor`)
derives the same counts by executing the schedule; the tests use it as
the oracle for this meter over every bundled machine pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple, Union

from repro.errors import CalibrationError, SimulationError
from repro.machine.operating_point import OperatingPoint
from repro.power.energy import EnergyEstimate, EnergyModel, EnergyTerms, energy_terms
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


#: One loop to meter: its schedule (or summary), the iterations per
#: entry and the number of entries.
LoopRun = Tuple[Union[Schedule, "ScheduleSummary"], float, float]


def loop_events(
    schedule: Union[Schedule, "ScheduleSummary"],
    iterations: float,
    invocations: float = 1.0,
) -> Tuple[Tuple[float, ...], float, float, float]:
    """A metered loop's events and time, as plain numbers.

    ``(per-cluster energy units, communications, memory accesses,
    time)`` of ``invocations`` entries of ``iterations`` iterations
    each: the schedule's per-iteration counts times ``iterations`` times
    ``invocations``, and its execution time times ``invocations``.
    Raises ``ValueError`` on negative counts, as :class:`EventCounts`
    does.
    """
    units = tuple(
        u * iterations * invocations for u in schedule.cluster_energy_units()
    )
    n_comms = schedule.comms_per_iteration * iterations * invocations
    n_mem_accesses = schedule.mem_accesses_per_iteration * iterations * invocations
    if min(units, default=0) < 0 or n_comms < 0 or n_mem_accesses < 0:
        raise ValueError("event counts must be non-negative")
    return (
        units,
        n_comms,
        n_mem_accesses,
        schedule.execution_time(iterations) * invocations,
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
    def measure_loops(
        self,
        runs: Iterable[LoopRun],
        *settings: Tuple[OperatingPoint, float],
    ) -> Tuple[MeasuredExecution, ...]:
        """Meter loops at each ``(point, time_scale)``, in one walk.

        Per setting, the result equals :meth:`measure_program` of
        :meth:`measure_loop` of every run: each loop's events
        (:func:`loop_events`) are priced by
        :func:`~repro.power.energy.energy_terms` at the point's
        scalings, and the six components and the times are summed over
        the loops in run order.  ``time_scale`` re-times a homogeneous
        schedule to another cycle time; it multiplies last, so ``1.0``
        leaves the time exactly as metered.
        """
        model = self._model
        units = model.units
        priced = [
            (model.scalings(point), point.n_clusters, time_scale)
            for point, time_scale in settings
        ]
        metered: List[Tuple[List[EnergyTerms], List[float]]] = [
            ([], []) for _ in settings
        ]
        for schedule, iterations, invocations in runs:
            events, n_comms, n_mem_accesses, time = loop_events(
                schedule, iterations, invocations
            )
            for (scalings, n_clusters, time_scale), (terms, times) in zip(
                priced, metered
            ):
                if len(events) != n_clusters:
                    raise CalibrationError(
                        "event counts and operating point disagree on cluster count"
                    )
                total_time = time * time_scale
                if total_time < 0:
                    raise ValueError("execution time must be non-negative")
                terms.append(
                    energy_terms(
                        units, scalings, events, n_comms, n_mem_accesses, total_time
                    )
                )
                times.append(total_time)
        if metered and not metered[0][1]:
            raise SimulationError("cannot aggregate zero measurements")
        return tuple(
            MeasuredExecution(
                energy=EnergyEstimate(*map(sum, zip(*terms))),
                exec_time_ns=sum(times),
            )
            for terms, times in metered
        )

    def measure_loop(
        self,
        schedule: Union[Schedule, "ScheduleSummary"],
        point: OperatingPoint,
        iterations: float,
        invocations: float = 1.0,
        time_scale: float = 1.0,
    ) -> MeasuredExecution:
        """Meter one (validated) scheduled loop with its analytic counts.

        :meth:`measure_loops` of the one loop.  ``schedule`` is a live
        schedule or its :class:`~repro.pipeline.stages.ScheduleSummary`
        (the same numbers).  ``invocations`` scales the result by the
        number of times the loop is entered (each entry runs
        ``iterations`` iterations).
        """
        (measured,) = self.measure_loops(
            ((schedule, iterations, invocations),), (point, time_scale)
        )
        return measured

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

"""The heterogeneous modulo-scheduling driver (Figure 5).

``compute MIT -> IT := MIT -> select (freq, II) pairs -> partition ->
schedule``, increasing the IT and retrying whenever any stage fails:
synchronisation failures in pair selection, recurrence pre-placement
failures, kernel placement failures, or register-pressure violations.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    InfeasibleITError,
    PartitionError,
    SchedulingError,
)
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import OperatingPoint
from repro.scheduler.context import (
    PartitionEnergyWeights,
    SchedulingContext,
    loop_analysis,
)
from repro.scheduler.ii_selection import iter_it_candidates, select_assignments
from repro.scheduler.kernel import KernelScheduler
from repro.scheduler.mii import minimum_initiation_time
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition import build_partition
from repro.scheduler.schedule import ITSearch, Schedule
from repro.telemetry import counter, span

#: IT-search effort: candidates are (IT, assignment) attempts, retries
#: are attempts that failed (labelled by the failing phase), loops are
#: completed searches (labelled by final status).
_IT_CANDIDATES = counter(
    "repro_scheduler_it_candidates_total",
    "IT candidates tried by the heterogeneous modulo scheduler",
)
_IT_RETRIES = counter(
    "repro_scheduler_it_retries_total",
    "IT candidates rejected, by failure reason",
)
_LOOPS = counter(
    "repro_scheduler_loops_total",
    "Completed IT searches, by outcome (ok or infeasible)",
)


def _retry_reason(why: str) -> str:
    """The coarse phase label of one recorded failure."""
    return why.split(":", 1)[0].replace(" ", "_")


class HeterogeneousModuloScheduler:
    """Schedules loops on an arbitrary (possibly heterogeneous) point."""

    def __init__(
        self,
        machine: MachineDescription,
        options: Optional[SchedulerOptions] = None,
    ):
        self._machine = machine
        self._options = options if options is not None else SchedulerOptions()

    @property
    def machine(self) -> MachineDescription:
        """The machine this scheduler targets."""
        return self._machine

    @property
    def options(self) -> SchedulerOptions:
        """The tuning knobs in use."""
        return self._options

    # ------------------------------------------------------------------
    def schedule(
        self,
        loop: Loop,
        point: OperatingPoint,
        weights: Optional[PartitionEnergyWeights] = None,
    ) -> Schedule:
        """Produce a validated schedule, or raise.

        The schedule's :attr:`~Schedule.search` reports the MIT the IT
        search started from and how many candidates it tried.  Raises
        :class:`InfeasibleITError` when no IT within the search budget
        admits a legal schedule.
        """
        with span("schedule_loop", loop=loop.ddg.name) as sp:
            return self._schedule(loop, point, weights, sp)

    def _schedule(
        self,
        loop: Loop,
        point: OperatingPoint,
        weights: Optional[PartitionEnergyWeights],
        sp,
    ) -> Schedule:
        machine = self._machine
        options = self._options
        ddg = loop.ddg
        ddg.validate()
        if point.n_clusters != machine.n_clusters:
            raise SchedulingError(
                "operating point and machine disagree on cluster count"
            )

        # Everything that depends only on the loop (recurrences, heights,
        # priorities, per-op arrays) is computed once and shared across
        # every IT candidate — each retry only re-runs placement.
        analysis = loop_analysis(ddg, machine.isa)
        mit = minimum_initiation_time(ddg, machine, point.speeds)
        candidates = iter_it_candidates(point, options.palette, start=mit)
        failures = []
        attempts = 0
        for attempt, it in enumerate(candidates):
            if attempt >= options.max_it_candidates:
                break
            attempts = attempt + 1
            assignments = select_assignments(it, point, options.palette)
            if assignments is None:
                failures.append((it, "synchronisation"))
                continue
            ctx = SchedulingContext(
                ddg,
                machine,
                point,
                assignments,
                it,
                options,
                trip_count=loop.trip_count,
                weights=weights,
                analysis=analysis,
            )
            try:
                partition = build_partition(ctx)
            except PartitionError as error:
                failures.append((it, f"partition: {error}"))
                continue
            try:
                placements, copies = KernelScheduler(ctx, partition).run()
            except SchedulingError as error:
                failures.append((it, f"kernel: {error}"))
                continue
            schedule = Schedule(
                ddg=ddg,
                machine=machine,
                it=it,
                assignments=assignments,
                placements=placements,
                copies=copies,
                sync_penalties=options.sync_penalties,
                search=ITSearch(mit, attempts),
            )
            # A schedule the kernel emits must always be legal; validating
            # here turns any engine bug into a loud failure.
            schedule.validate()
            if options.check_register_pressure and self._over_register_budget(
                schedule
            ):
                failures.append((it, "register pressure"))
                continue
            self._flush_search(sp, attempts, failures, "ok")
            return schedule

        self._flush_search(sp, attempts, failures, "infeasible")
        detail = "; ".join(f"IT={it}: {why}" for it, why in failures[-3:])
        raise InfeasibleITError(
            f"loop {ddg.name!r}: no feasible IT within "
            f"{options.max_it_candidates} candidates (last failures: {detail})"
        )

    @staticmethod
    def _flush_search(sp, attempts: int, failures, status: str) -> None:
        """Record one completed IT search on the registry (and span)."""
        _IT_CANDIDATES.inc(attempts)
        _LOOPS.inc(status=status)
        for _it, why in failures:
            _IT_RETRIES.inc(reason=_retry_reason(why))
        if sp is not None:
            sp.count("it_candidates", attempts)
            sp.count("it_retries", len(failures))

    # ------------------------------------------------------------------
    def _over_register_budget(self, schedule: Schedule) -> bool:
        peaks = schedule.max_live()
        for index, peak in enumerate(peaks):
            if peak > self._machine.cluster(index).n_regs:
                return True
        return False

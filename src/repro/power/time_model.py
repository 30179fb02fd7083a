"""The section 3.2 execution-time estimate.

For a candidate machine speed assignment, the IT of each profiled loop is
estimated as the smallest initiation time such that

1. ``IT >= recMIT`` (the longest recurrence fits: recMII cycles of the
   fastest cluster),
2. there are enough FU slots for every instruction
   (``sum_c II_c * units_{c,r} >= N_r`` per FU type, with
   ``II_c = floor(IT / Tcyc_c)``),
3. there are enough bus slots for the communications of the homogeneous
   schedule (``n_buses * II_icn >= comms``),
4. there are enough register lifetime slots
   (``sum_c regs_c * II_c >= lifetime cycles``).

``it_length`` is approximated as the homogeneous iteration length times
the arithmetic-mean cluster cycle time (the paper's half-fast/half-slow
assumption), and
``Texec = weight * ((N - 1) * IT + it_length)`` per loop.

Constraints 2-4 and the search for the smallest IT are the scheduler's
own: a :class:`~repro.scheduler.mii.SpeedsContext` scans ``recMIT`` and
then the multiples of the cluster (and interconnect) periods above it,
with the capacity test and the scan ``resMIT`` uses.  This module only
supplies the start, the demand, the communications and the lifetimes
from the loop's profile, as plain ints (:meth:`TimeModel.loop_it`).

Every estimate walks the loops as :class:`LoopRow` s (what the estimate
reads of a profile, read once) against one speeds context, on ints of
the context's quantum: :meth:`TimeModel.context_time` is the one sum.
:meth:`TimeModel.program_time` and :meth:`TimeModel.rows_time` build a
context for their speed assignment and keep nothing.  The section 3.3
selector builds the rows once per call with :meth:`TimeModel.loop_rows`
and prices them against the contexts of its design-space plan
(:func:`~repro.vfs.selector.design_space_plan`), which are kept with
the plan, keyed on the machine's cluster shape, technology, reference
setting and design space, and bounded by
:data:`~repro.vfs.selector.PLAN_CACHE_SIZE` plans; no profile data is
kept with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.power.profile import LoopProfile, ProgramProfile
from repro.scheduler.mii import SpeedsContext, demand_codes


@dataclass(frozen=True)
class LoopTimeEstimate:
    """Estimated timing of one loop under one speed assignment."""

    it: Fraction
    it_length_ns: float
    time_per_entry_ns: float
    total_ns: float


class LoopRow(NamedTuple):
    """What the section 3.2 estimate reads of one loop profile."""

    profile: LoopProfile
    #: ``recMII`` as an exact ``(numerator, denominator)`` pair of ints.
    rec_mii: Tuple[int, int]
    #: FU demand as :func:`~repro.scheduler.mii.demand_codes` pairs.
    needs: Tuple[Tuple[int, int], ...]
    comms: int
    lifetimes: int
    cycles_per_iteration: int
    #: ``trip_count - 1``: iterations issued after the first, per entry.
    later_iterations: float
    weight: float

    @classmethod
    def of(cls, profile: LoopProfile) -> "LoopRow":
        """The row of one loop profile."""
        return cls(
            profile=profile,
            rec_mii=profile.rec_mii.as_integer_ratio(),
            needs=demand_codes(profile.fu_demand),
            comms=profile.comms_per_iteration,
            lifetimes=profile.lifetime_cycles_per_iteration,
            cycles_per_iteration=profile.cycles_per_iteration,
            later_iterations=profile.trip_count - 1,
            weight=profile.weight,
        )


class TimeModel:
    """Section 3.2 estimator bound to one machine description."""

    def __init__(self, machine: MachineDescription):
        self._machine = machine

    def speeds_context(self, speeds: MachineSpeeds) -> SpeedsContext:
        """The capacity check and IT scan of this machine at ``speeds``."""
        if speeds.n_clusters != self._machine.n_clusters:
            raise ValueError("speed assignment and machine disagree on clusters")
        return SpeedsContext(self._machine, speeds)

    def loop_it(self, context: SpeedsContext, row: LoopRow) -> Tuple[int, int]:
        """Smallest IT satisfying the four section 3.2 constraints.

        Returned as an exact ``(numerator, denominator)`` pair of ns, so
        callers that only need its float skip building a Fraction.
        """
        # recMIT: recMII cycles of the fastest cluster (section 2.2), as
        # ``start / den`` quanta.
        num, den = row.rec_mii
        if num > 0:
            start = num * context.fastest_period
        else:
            # No recurrences: the scan starts at the smallest IT giving the
            # fastest cluster a single slot.
            start, den = context.fastest_period, 1
        below = start // den
        it = context.scan(
            below, row.needs, row.comms, row.lifetimes, row.profile.name
        )
        q_num, q_den = context.quantum_ratio
        if it == below:
            # The same IIs as at ``below``: recMIT itself is feasible.
            return start * q_num, den * q_den
        return it * q_num, q_den

    def minimum_initiation_time(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> Fraction:
        """Smallest IT satisfying the four section 3.2 constraints."""
        return Fraction(*self.loop_it(self.speeds_context(speeds), LoopRow.of(profile)))

    # ------------------------------------------------------------------
    def loop_estimate(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> LoopTimeEstimate:
        """IT, it_length and total time of one loop (section 3.2)."""
        it = self.minimum_initiation_time(profile, speeds)
        it_length = profile.cycles_per_iteration * float(
            speeds.mean_cluster_cycle_time
        )
        per_entry = (profile.trip_count - 1) * float(it) + it_length
        return LoopTimeEstimate(
            it=it,
            it_length_ns=it_length,
            time_per_entry_ns=per_entry,
            total_ns=per_entry * profile.weight,
        )

    @staticmethod
    def loop_rows(profile: ProgramProfile) -> Tuple[LoopRow, ...]:
        """The rows :meth:`rows_time` walks, one per loop of ``profile``."""
        return tuple(LoopRow.of(loop) for loop in profile.loops)

    def rows_time(self, rows: Sequence[LoopRow], speeds: MachineSpeeds) -> float:
        """:meth:`program_time` of a profile's :meth:`loop_rows`."""
        return self.context_time(rows, self.speeds_context(speeds))

    def context_time(self, rows: Sequence[LoopRow], context: SpeedsContext) -> float:
        """Estimated execution time (ns) of ``rows`` against ``context``.

        Each loop's total is :meth:`loop_estimate`'s ``total_ns``, in the
        same float operations; the IT stays an int ratio until its float.
        """
        mean_cycle_time = context.mean_cycle_time
        loop_it = self.loop_it
        return sum(
            (
                row.later_iterations * (num / den)
                + row.cycles_per_iteration * mean_cycle_time
            )
            * row.weight
            for row in rows
            for num, den in (loop_it(context, row),)
        )

    def program_time(
        self, profile: ProgramProfile, speeds: MachineSpeeds
    ) -> float:
        """Estimated execution time (ns) of a whole program."""
        return self.rows_time(self.loop_rows(profile), speeds)

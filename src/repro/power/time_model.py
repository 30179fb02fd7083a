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
own: :func:`repro.scheduler.mii.min_feasible_it` scans ``recMIT`` and
then the multiples of the cluster (and interconnect) periods above it
with :func:`~repro.scheduler.mii.capacity_ok`, the check that
``resMIT`` uses.  This module only supplies the start, the demand, the
communications and the lifetimes from the loop's profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.power.profile import LoopProfile, ProgramProfile
from repro.scheduler.mii import min_feasible_it


@dataclass(frozen=True)
class LoopTimeEstimate:
    """Estimated timing of one loop under one speed assignment."""

    it: Fraction
    it_length_ns: float
    time_per_entry_ns: float
    total_ns: float


class TimeModel:
    """Section 3.2 estimator bound to one machine description."""

    def __init__(self, machine: MachineDescription):
        self._machine = machine

    def minimum_initiation_time(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> Fraction:
        """Smallest IT satisfying the four section 3.2 constraints."""
        if speeds.n_clusters != self._machine.n_clusters:
            raise ValueError("speed assignment and machine disagree on clusters")
        # recMIT: recMII cycles of the fastest cluster (section 2.2).
        start = profile.rec_mii * speeds.fastest_cluster_cycle_time
        if start <= 0:
            # No recurrences: the scan starts at the smallest IT giving the
            # fastest cluster a single slot.
            start = speeds.fastest_cluster_cycle_time
        return min_feasible_it(
            start,
            self._machine,
            speeds,
            profile.fu_demand,
            profile.comms_per_iteration,
            profile.lifetime_cycles_per_iteration,
            loop=profile.name,
        )

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

    def program_time(
        self, profile: ProgramProfile, speeds: MachineSpeeds
    ) -> float:
        """Estimated execution time (ns) of a whole program."""
        return sum(
            self.loop_estimate(loop, speeds).total_ns for loop in profile.loops
        )

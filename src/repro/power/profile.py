"""Profile data collected on the reference homogeneous machine.

The configuration selector never schedules anything: it works from the
profile of each loop as scheduled once on the reference homogeneous
machine (section 3).  :class:`LoopProfile` carries exactly the
quantities the section 3.1/3.2 models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping

from repro.ir.opcodes import OpClass
from repro.machine.fu import FUType, fu_demand
from repro.units import Time

if TYPE_CHECKING:
    from repro.power.time_model import LoopRow


@dataclass(frozen=True)
class LoopProfile:
    """Per-loop profile from the reference homogeneous schedule.

    All "per iteration" quantities refer to one iteration of the loop
    body; totals across the profiled execution weight them by
    ``trip_count * weight``.
    """

    name: str
    #: Recurrence-constrained MII, in cycles (exact rational).
    rec_mii: Fraction
    #: Resource-constrained MII on the homogeneous machine, in cycles.
    res_mii: int
    #: Achieved initiation interval of the homogeneous schedule, cycles.
    ii_homogeneous: int
    #: Cycles one iteration takes in the homogeneous schedule (it_length).
    cycles_per_iteration: int
    #: Operations per iteration, by instruction class.
    class_counts: Mapping[OpClass, int]
    #: Sum of Table 1 relative energies over one iteration's operations.
    energy_units_per_iteration: float
    #: Inter-cluster communications per iteration (homogeneous schedule).
    comms_per_iteration: int
    #: Memory accesses per iteration.
    mem_accesses_per_iteration: int
    #: Sum of register lifetimes per iteration, in cycles.
    lifetime_cycles_per_iteration: int
    #: Average iterations per loop entry (N).
    trip_count: float
    #: Number of loop entries during the profiled execution.
    weight: float
    #: Fraction of the loop's instruction energy sitting on its *critical*
    #: recurrences (the circuits achieving recMII).  Drives the refined
    #: instruction-distribution estimate: only this fraction must run on
    #: performance-oriented clusters.
    critical_energy_fraction: float = 0.5
    #: Value edges with exactly one endpoint on a critical recurrence.
    #: When a heterogeneous partition separates the critical recurrence
    #: from the rest of the loop, roughly these edges become bus
    #: communications on top of the homogeneous ones.
    critical_boundary_edges: int = 0

    @cached_property
    def fu_demand(self) -> Dict[FUType, int]:
        """Per-FU-type instruction counts (cached outside the fields)."""
        return fu_demand(self.class_counts)

    @cached_property
    def time_row(self) -> "LoopRow":
        """What the section 3.2 time model reads of this loop, read once.

        Cached outside the fields, like :attr:`fu_demand`: the loop
        cache hands the same profile to every warm evaluation, so the
        row and its demand are built once per profile.
        """
        from repro.power.time_model import LoopRow

        return LoopRow.of(self)

    @property
    def ops_per_iteration(self) -> int:
        """Total operations in the loop body."""
        return sum(self.class_counts.values())

    @property
    def total_iterations(self) -> float:
        """Iterations executed across the whole profile."""
        return self.trip_count * self.weight

    @property
    def homogeneous_cycles_total(self) -> float:
        """Cycles the loop contributes on the reference machine.

        ``(N - 1) * II + it_length`` per entry, times the entry count.
        """
        per_entry = (self.trip_count - 1) * self.ii_homogeneous + self.cycles_per_iteration
        return per_entry * self.weight

    @property
    def is_recurrence_constrained(self) -> bool:
        """True when recurrences dominate resources (recMII >= resMII)."""
        return self.rec_mii >= self.res_mii

    def constraint_class(self, threshold: float = 1.3) -> str:
        """Table 2 classification of the loop.

        ``"resource"`` when recMII < resMII, ``"recurrence"`` when
        recMII >= threshold * resMII, ``"balanced"`` otherwise.
        """
        if self.rec_mii < self.res_mii:
            return "resource"
        if self.rec_mii >= Fraction(threshold).limit_denominator(100) * self.res_mii:
            return "recurrence"
        return "balanced"


@dataclass
class ProgramProfile:
    """Profile of a whole program: one entry per software-pipelined loop."""

    name: str
    loops: List[LoopProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.loops:
            raise ValueError(f"program profile {self.name!r} has no loops")

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)

    # ------------------------------------------------------------------
    # whole-program totals (reference homogeneous machine)
    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        """Total execution cycles on the reference machine."""
        return sum(loop.homogeneous_cycles_total for loop in self.loops)

    def total_time(self, reference_cycle_time: Time) -> float:
        """Total execution time (ns) on the reference machine."""
        return self.total_cycles * float(reference_cycle_time)

    @property
    def total_energy_units(self) -> float:
        """Executed Table 1 energy units across the profile."""
        return sum(
            loop.energy_units_per_iteration * loop.total_iterations
            for loop in self.loops
        )

    @property
    def total_comms(self) -> float:
        """Executed inter-cluster communications across the profile."""
        return sum(
            loop.comms_per_iteration * loop.total_iterations for loop in self.loops
        )

    @property
    def total_comms_heterogeneous(self) -> float:
        """Communication estimate for a *heterogeneous* partitioning.

        For long-running loops the partitioner co-locates the
        critical-recurrence boundary with its neighbours (there is slack
        and capacity), so communications stay near the homogeneous count.
        For short-trip-count loops the partitioner spreads work to cut
        it_length and the boundary edges of the critical recurrences do
        become bus traffic; the ramp weight
        ``it_length / ((N-1) * II + it_length)`` interpolates between the
        two regimes.
        """
        total = 0.0
        for loop in self.loops:
            per_entry = (
                loop.trip_count - 1
            ) * loop.ii_homogeneous + loop.cycles_per_iteration
            ramp = loop.cycles_per_iteration / per_entry if per_entry > 0 else 1.0
            estimate = (
                loop.comms_per_iteration + loop.critical_boundary_edges * ramp
            )
            total += estimate * loop.total_iterations
        return total

    @property
    def total_mem_accesses(self) -> float:
        """Executed memory accesses across the profile."""
        return sum(
            loop.mem_accesses_per_iteration * loop.total_iterations
            for loop in self.loops
        )

    @property
    def critical_energy_fraction(self) -> float:
        """Time-weighted mean of the loops' critical-instruction share."""
        total = self.total_cycles
        if total <= 0:
            return 0.5
        return sum(
            loop.critical_energy_fraction * loop.homogeneous_cycles_total
            for loop in self.loops
        ) / total

    def time_share_by_constraint_class(
        self, threshold: float = 1.3
    ) -> Dict[str, float]:
        """Fraction of reference execution time per Table 2 class."""
        total = self.total_cycles
        shares = {"resource": 0.0, "balanced": 0.0, "recurrence": 0.0}
        if total <= 0:
            return shares
        for loop in self.loops:
            shares[loop.constraint_class(threshold)] += (
                loop.homogeneous_cycles_total / total
            )
        return shares

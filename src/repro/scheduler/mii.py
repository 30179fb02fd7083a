"""Minimum initiation time (MIT) for heterogeneous machines (section 2.2).

On a homogeneous machine the scheduler reasons in cycles (MII); with
per-domain frequencies the shared loop constant is the initiation *time*:

* ``recMIT = recMII * Tcyc(fastest cluster)`` — the longest recurrence can
  always be placed on the fastest cluster,
* ``resMIT`` — the smallest IT giving every FU type enough slots, where a
  cluster running with initiation interval ``II_c = floor(IT / Tcyc_c)``
  contributes ``II_c`` slots per unit,
* ``MIT = max(recMIT, resMIT)``.

Every IT search in the package rests on one rule: capacity never shrinks
as IT grows, and it only jumps at multiples of a domain period (Figure 4).
:func:`period_multiples` enumerates those multiples.  A
:class:`SpeedsContext` holds one machine at one speed assignment on an
exact integer time grid (:attr:`MachineSpeeds.time_quantum`): its
:meth:`~SpeedsContext.fits` is the one capacity test (FU slots, plus
the bus and register slots of the section 3.2 estimate) and its
:meth:`~SpeedsContext.scan` the one minimum-IT scan.  Both take the
demand as plain ints (:func:`demand_codes` pairs, communications,
lifetimes) and build nothing per demand.  :func:`capacity_ok`,
:func:`min_feasible_it` and ``resMIT`` are thin callers that build a
context per call and keep nothing.  The section 3.2 time model scans
every loop against one context per speed assignment; the section 3.3
selector's contexts, one per structure, are kept in its design-space
plan (:func:`~repro.vfs.selector.design_space_plan`), keyed on the
machine's cluster shape, technology, reference setting and design
space and bounded by :data:`~repro.vfs.selector.PLAN_CACHE_SIZE`
plans, so the slots they count serve every later evaluation.  The
scheduler's candidate stream
(:func:`~repro.scheduler.ii_selection.iter_it_candidates`) merges period
multiples on the same kind of grid (:func:`~repro.units.common_quantum`
of its periods): the periods are converted to ints once, then multiples
merge and slots count on plain ints.

:func:`capacity_table` reproduces the Figure 4 table: how many slots each
IT buys on each cluster.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InfeasibleITError
from repro.ir.analysis import rec_mii
from repro.ir.ddg import DDG
from repro.machine.fu import FU_INDEX, N_FU_KINDS, FUType, fu_demand
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.units import Time, as_fraction, common_quantum, floor_div, grid_steps

#: Safety bound on the candidate ITs one :func:`min_feasible_it` scan checks.
MAX_CANDIDATES = 100_000

#: Positions of the register and bus slots in a context's slot counts,
#: after one entry per FU code.
_REGS = N_FU_KINDS
_BUS = N_FU_KINDS + 1


def _grid_multiples(periods: Sequence[int], start: int) -> Iterator[int]:
    """:func:`period_multiples` on one integer time grid.

    ``periods`` must be sorted and distinct.  A heap holds each period's
    next multiple; popping a value re-arms every period dividing it, and
    the other periods' copies of the same value are dropped, so the heap
    never holds more than one entry per period.
    """
    heap = [max(-(-start // period), 1) * period for period in periods]
    heapq.heapify(heap)
    previous: Optional[int] = None
    while heap:
        value = heapq.heappop(heap)
        if value == previous:
            continue
        for period in periods:
            if value % period == 0:
                heapq.heappush(heap, value + period)
        previous = value
        yield value


def period_multiples(
    periods: Iterable[Fraction], start: Fraction
) -> Iterator[Fraction]:
    """Ascending distinct ``k * p`` (``k >= 1``, ``p`` in ``periods``) ``>= start``."""
    periods = [as_fraction(period) for period in periods]
    if not periods:
        return
    start = as_fraction(start)
    quantum = common_quantum([abs(start), *periods])
    for value in _grid_multiples(
        sorted({grid_steps(period, quantum) for period in periods}),
        grid_steps(start, quantum),
    ):
        yield quantum * value


def demand_codes(demand: Mapping[FUType, int]) -> Tuple[Tuple[int, int], ...]:
    """``demand`` as ``(needed, FU code)`` pairs, zero entries dropped.

    Codes index :data:`~repro.machine.fu.FU_INDEX`; callers that check
    the same demand at many speeds convert it once.
    """
    return tuple((needed, FU_INDEX[fu]) for fu, needed in demand.items() if needed)


class SpeedsContext:
    """One machine at one :class:`MachineSpeeds`, on the speeds' time grid.

    Holds everything the capacity test and the minimum-IT scan read
    that depends on the speeds alone: the quantum
    (:attr:`MachineSpeeds.time_quantum`) and its integer ratio, the
    cluster and interconnect periods in quanta, the per-FU unit rows and
    the register row, the bus slots and the two period lists a scan
    merges (the clusters', and the clusters' plus the interconnect's
    when communications need bus slots).  Clusters sharing a period
    share an II, so the rows hold one entry per distinct cluster period:
    the units (registers) of those clusters summed.  Build it once per
    speeds; :meth:`fits` is then the capacity test of one demand at one
    IT and :meth:`scan` the minimum-IT scan.  ITs are ints of
    :attr:`quantum`; a demand is :func:`demand_codes` pairs plus the
    communications and register lifetimes of one iteration.  The slots
    an IT buys are counted once per context, on the first test at that
    IT, so the loops scanned at one speed assignment share them.  They
    are kept as long as the context, one entry per IT tested, as is the
    ascending list of period multiples :meth:`scan` walks (as far as
    scans reached); a context of a design-space plan keeps both as long
    as the plan.  Threads counting the same IT, or growing the list,
    store equal values.
    """

    def __init__(self, machine: MachineDescription, speeds: MachineSpeeds):
        quantum = speeds.time_quantum
        self.speeds = speeds
        self.quantum = quantum
        #: :attr:`quantum` as an exact ``(numerator, denominator)`` pair.
        self.quantum_ratio = quantum.as_integer_ratio()
        self.cluster_periods = [
            grid_steps(ct, quantum) for ct in speeds.cluster_cycle_times
        ]
        self.fastest_period = min(self.cluster_periods)
        self.icn_period = grid_steps(speeds.icn_cycle_time, quantum)
        self._fu_periods = sorted(set(self.cluster_periods))
        self._bus_periods = sorted({*self.cluster_periods, self.icn_period})
        # Clusters sharing a period share an II: their rows add up.
        slot = {period: k for k, period in enumerate(self._fu_periods)}
        self._units_by_code = [[0] * len(slot) for _ in range(N_FU_KINDS)]
        self._regs = [0] * len(slot)
        for index, period in enumerate(self.cluster_periods):
            cluster = machine.cluster(index)
            for code, count in enumerate(cluster.fu_counts_by_code):
                self._units_by_code[code][slot[period]] += count
            self._regs[slot[period]] += cluster.n_regs
        self._bus_slots = machine.interconnect.n_buses
        self._slots: Dict[int, List[int]] = {}
        #: Ascending multiples of the FU (``False``) and the bus
        #: (``True``) period lists, from the first one up, as far as
        #: scans have reached.
        self._multiples: Dict[bool, List[int]] = {False: [], True: []}

    @cached_property
    def mean_cycle_time(self) -> float:
        """``float(speeds.mean_cluster_cycle_time)``, from the period ints.

        Int true division rounds correctly, as ``Fraction.__float__``
        does.
        """
        q_num, q_den = self.quantum_ratio
        periods = self.cluster_periods
        return q_num * sum(periods) / (q_den * len(periods))

    def fits(
        self,
        it: int,
        needs: Sequence[Tuple[int, int]],
        comms: int = 0,
        lifetimes: int = 0,
    ) -> bool:
        """Whether grid IT ``it`` buys the slots of one iteration.

        The one capacity test: :func:`capacity_ok` on ints.
        """
        slots = self._slots.get(it)
        if slots is None:
            slots = self._slots[it] = self._count_slots(it)
        for needed, code in needs:
            if slots[code] < needed:
                return False
        return slots[_REGS] >= lifetimes and slots[_BUS] >= comms

    def _count_slots(self, it: int) -> List[int]:
        """Slots grid IT ``it`` buys: per FU code, then registers, then bus.

        With ``II_d = it // period_d``, FU (register) slots sum ``II_c``
        times each cluster's units (registers); bus slots are
        ``n_buses * II_icn``.
        """
        iis = [it // period for period in self._fu_periods]
        slots = [sum(map(mul, iis, units)) for units in self._units_by_code]
        slots.append(sum(map(mul, iis, self._regs)))
        slots.append(self._bus_slots * (it // self.icn_period))
        return slots

    def scan(
        self,
        below: int,
        needs: Sequence[Tuple[int, int]],
        comms: int = 0,
        lifetimes: int = 0,
        loop: str = "",
    ) -> int:
        """Smallest grid IT ``>= below`` that :meth:`fits` the demand.

        Capacity only jumps at multiples of a cluster period (and, when
        ``comms`` need bus slots, of the interconnect period), so the
        answer is ``below`` itself or the first fitting multiple above
        it.  The multiples are walked from the context's ascending list,
        found by bisection, so the loops scanned against one context
        share it.  Raises :class:`InfeasibleITError` after
        :data:`MAX_CANDIDATES` candidates (``loop`` names the loop in the
        message).
        """
        fits = self.fits
        if fits(below, needs, comms, lifetimes):
            return below
        bus = comms > 0
        multiples = self._multiples[bus]
        if not multiples or multiples[-1] <= below:
            multiples = self._grow_multiples(bus, below)
        index = bisect_right(multiples, below)
        for _ in range(MAX_CANDIDATES):
            if index == len(multiples):
                multiples = self._grow_multiples(bus, multiples[-1])
            it = multiples[index]
            if fits(it, needs, comms, lifetimes):
                return it
            index += 1
        raise InfeasibleITError(
            f"no feasible IT found for loop {loop!r} within "
            f"{MAX_CANDIDATES} candidates"
        )

    def _grow_multiples(self, bus: bool, past: int) -> List[int]:
        """The FU or bus multiples list, grown beyond ``past``.

        At least doubled, so a long scan grows it a logarithmic number
        of times.  The grown list is a new one: a thread walking the old
        list is undisturbed, and two threads growing it store equal
        lists.
        """
        multiples = self._multiples[bus]
        periods = self._bus_periods if bus else self._fu_periods
        grown = list(multiples)
        least = 2 * len(multiples) + 16
        for value in _grid_multiples(periods, multiples[-1] + 1 if multiples else 1):
            grown.append(value)
            if value > past and len(grown) >= least:
                break
        self._multiples[bus] = grown
        return grown

    def min_feasible_it(
        self,
        start: Time,
        demand: Mapping[FUType, int],
        comms: int = 0,
        lifetimes: int = 0,
        loop: str = "",
    ) -> Fraction:
        """:func:`min_feasible_it` at these speeds."""
        below = floor_div(start, self.quantum)
        it = self.scan(below, demand_codes(demand), comms, lifetimes, loop)
        # Every II is the same at ``start`` and at the grid point below
        # it, and grid points above ``below`` are the instants above it.
        return start if it == below else self.quantum * it


def capacity_ok(
    it: Time,
    machine: MachineDescription,
    speeds: MachineSpeeds,
    demand: Mapping[FUType, int],
    comms: int = 0,
    lifetimes: int = 0,
) -> bool:
    """Whether ``it`` buys enough slots for one iteration.

    Every FU type needs ``sum_c II_c * units_{c,r} >= demand_r``; with
    ``comms`` the buses need ``n_buses * II_icn >= comms`` and with
    ``lifetimes`` the register files ``sum_c regs_c * II_c >= lifetimes``
    (section 3.2), where ``II_d = floor(it / Tcyc_d)``.  Every ``II_d``
    is the same at ``it`` and at the grid point at or below it.
    """
    context = SpeedsContext(machine, speeds)
    return context.fits(
        floor_div(it, context.quantum), demand_codes(demand), comms, lifetimes
    )


def min_feasible_it(
    start: Time,
    machine: MachineDescription,
    speeds: MachineSpeeds,
    demand: Mapping[FUType, int],
    comms: int = 0,
    lifetimes: int = 0,
    loop: str = "",
) -> Fraction:
    """Smallest IT ``>= start`` passing :func:`capacity_ok`.

    ``start`` itself or the first passing period multiple above it
    (:meth:`SpeedsContext.scan`, on ints of ``speeds.time_quantum``).
    Raises :class:`InfeasibleITError` after :data:`MAX_CANDIDATES`
    candidates (``loop`` names the loop in the message).
    """
    return SpeedsContext(machine, speeds).min_feasible_it(
        start, demand, comms, lifetimes, loop
    )


def rec_mit(ddg: DDG, isa, speeds: MachineSpeeds) -> Fraction:
    """Recurrence-constrained minimum initiation time (ns)."""
    return rec_mii(ddg, isa) * speeds.fastest_cluster_cycle_time


def res_mit(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """Resource-constrained minimum initiation time (ns).

    The scan starts at a rate bound: even with every cluster contributing
    slots at its own rate, IT must satisfy
    ``sum_c (IT / Tcyc_c) * units >= demand`` per FU type.
    """
    demand = fu_demand(ddg.class_counts())
    context = SpeedsContext(machine, speeds)
    lower = speeds.fastest_cluster_cycle_time
    cts = context.cluster_periods
    # Over ``span`` quanta (a multiple of every period) cluster c issues
    # ``units_c * span / ct_c`` ops of a type: the rate on ints.
    span = math.lcm(*cts)
    for fu, needed in demand.items():
        if needed == 0:
            continue
        slots = sum(
            machine.cluster(i).fu_count(fu) * (span // ct)
            for i, ct in enumerate(cts)
        )
        if slots == 0:
            raise InfeasibleITError(
                f"loop {ddg.name!r} needs {fu} units but the machine has none"
            )
        lower = max(lower, context.quantum * Fraction(needed * span, slots))
    return context.min_feasible_it(lower, demand, loop=ddg.name)


def minimum_initiation_time(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """``MIT = max(recMIT, resMIT)`` (section 2.2)."""
    return max(rec_mit(ddg, machine.isa, speeds), res_mit(ddg, machine, speeds))


@dataclass(frozen=True)
class CapacityRow:
    """One row of the Figure 4 table."""

    it: Fraction
    cluster_iis: Tuple[int, ...]
    total_slots: int


def capacity_table(
    machine: MachineDescription,
    speeds: MachineSpeeds,
    max_it: Time,
) -> List[CapacityRow]:
    """The Figure 4 capacity table: slots bought by each candidate IT.

    Lists every IT up to ``max_it`` at which some cluster's II jumps,
    with the per-cluster IIs and the machine-wide issue slots
    (``sum_c II_c * issue_width_c``).
    """
    rows: List[CapacityRow] = []
    for it in period_multiples(speeds.cluster_cycle_times, Fraction(0)):
        if it > max_it:
            break
        iis = tuple(floor_div(it, ct) for ct in speeds.cluster_cycle_times)
        total = sum(
            ii * machine.cluster(i).issue_width for i, ii in enumerate(iis)
        )
        rows.append(CapacityRow(it=it, cluster_iis=iis, total_slots=total))
    return rows

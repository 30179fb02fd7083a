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
:func:`period_multiples` enumerates those multiples, :func:`capacity_ok`
is the one capacity check (FU slots, plus the bus and register slots of
the section 3.2 estimate) and :func:`min_feasible_it` is the scan that
``resMIT``, the section 3.2 time model and — through
:func:`~repro.scheduler.ii_selection.iter_it_candidates` — the
scheduler's candidate stream share.  Each works on an exact integer
time grid (:func:`~repro.units.common_quantum` of the periods involved,
:attr:`MachineSpeeds.time_quantum` for the capacity scans): the periods
are converted to ints once, then multiples merge and slots count on
plain ints.

:func:`capacity_table` reproduces the Figure 4 table: how many slots each
IT buys on each cluster.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleITError
from repro.ir.analysis import rec_mii
from repro.ir.ddg import DDG
from repro.machine.fu import FU_INDEX, FUType, fu_demand
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.units import Time, as_fraction, common_quantum, floor_div, grid_steps

#: Safety bound on the candidate ITs one :func:`min_feasible_it` scan checks.
MAX_CANDIDATES = 100_000


def _grid_multiples(periods: Iterable[int], start: int) -> Iterator[int]:
    """:func:`period_multiples` on one integer time grid.

    A heap holds each period's next multiple; popping a value re-arms
    every period dividing it, and the other periods' copies of the same
    value are dropped, so the heap never holds more than one entry per
    period.
    """
    periods = sorted(set(periods))
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
        [grid_steps(period, quantum) for period in periods],
        grid_steps(start, quantum),
    ):
        yield quantum * value


def _capacity_check(
    machine: MachineDescription,
    speeds: MachineSpeeds,
    demand: Mapping[FUType, int],
    comms: int,
    lifetimes: int,
) -> Callable[[int], bool]:
    """:func:`capacity_ok` for ITs given in ``speeds.time_quantum`` steps.

    The per-cluster unit counts are read once into dense per-FU rows.
    """
    quantum = speeds.time_quantum
    cts = [grid_steps(ct, quantum) for ct in speeds.cluster_cycle_times]
    clusters = [machine.cluster(i) for i in range(len(cts))]
    units_by_code = list(zip(*(c.fu_counts_by_code for c in clusters)))
    needs = [
        (needed, units_by_code[FU_INDEX[fu]])
        for fu, needed in demand.items()
        if needed
    ]
    bus_slots = machine.interconnect.n_buses
    icn_ct = grid_steps(speeds.icn_cycle_time, quantum)
    regs = [c.n_regs for c in clusters]

    def ok(it: int) -> bool:
        iis = [it // ct for ct in cts]
        for needed, units in needs:
            if sum(ii * unit for ii, unit in zip(iis, units)) < needed:
                return False
        if comms > 0 and bus_slots * (it // icn_ct) < comms:
            return False
        if lifetimes > 0:
            if sum(ii * reg for ii, reg in zip(iis, regs)) < lifetimes:
                return False
        return True

    return ok


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
    check = _capacity_check(machine, speeds, demand, comms, lifetimes)
    return check(floor_div(it, speeds.time_quantum))


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

    Capacity only jumps at multiples of a cluster period (and, when
    ``comms`` need bus slots, of the interconnect period), so the answer
    is ``start`` itself or the first feasible such multiple above it.
    The scan runs on ints of ``speeds.time_quantum``.  Raises
    :class:`InfeasibleITError` after :data:`MAX_CANDIDATES` candidates
    (``loop`` names the loop in the message).
    """
    quantum = speeds.time_quantum
    check = _capacity_check(machine, speeds, demand, comms, lifetimes)
    below = floor_div(start, quantum)
    if check(below):
        return start
    periods = list(speeds.cluster_cycle_times)
    if comms > 0:
        periods.append(speeds.icn_cycle_time)
    periods_q = [grid_steps(period, quantum) for period in periods]
    # Grid points above ``below`` are exactly the instants above ``start``.
    for steps, it in enumerate(_grid_multiples(periods_q, below + 1)):
        if steps >= MAX_CANDIDATES:  # pragma: no cover - safety net
            break
        if check(it):
            return quantum * it
    raise InfeasibleITError(
        f"no feasible IT found for loop {loop!r} within "
        f"{MAX_CANDIDATES} candidates"
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
    lower = speeds.fastest_cluster_cycle_time
    quantum = speeds.time_quantum
    cts = [grid_steps(ct, quantum) for ct in speeds.cluster_cycle_times]
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
        lower = max(lower, quantum * Fraction(needed * span, slots))
    return min_feasible_it(lower, machine, speeds, demand, loop=ddg.name)


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

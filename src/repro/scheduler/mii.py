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
scheduler's candidate stream share.

:func:`capacity_table` reproduces the Figure 4 table: how many slots each
IT buys on each cluster.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleITError
from repro.ir.analysis import rec_mii
from repro.ir.ddg import DDG
from repro.ir.opcodes import OpClass
from repro.machine.fu import FUType, fu_for
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import MachineSpeeds
from repro.units import Time, ceil_div, floor_div

#: Safety bound on the candidate ITs one :func:`min_feasible_it` scan checks.
MAX_CANDIDATES = 100_000


def fu_demand(class_counts: Mapping[OpClass, int]) -> Dict[FUType, int]:
    """Per-FU-type instruction counts of a loop body (copies excluded)."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for opclass, count in class_counts.items():
        fu = fu_for(opclass)
        if fu is not None:
            demand[fu] += count
    return demand


def period_multiples(
    periods: Iterable[Fraction], start: Fraction
) -> Iterator[Fraction]:
    """Ascending distinct ``k * p`` (``k >= 1``, ``p`` in ``periods``) ``>= start``.

    A heap holds each period's next multiple; popping a value re-arms
    every period dividing it, and the other periods' copies of the same
    value are dropped, so the heap never holds more than one entry per
    period.
    """
    periods = sorted(set(periods))
    heap = [max(ceil_div(start, period), 1) * period for period in periods]
    heapq.heapify(heap)
    previous: Optional[Fraction] = None
    while heap:
        value = heapq.heappop(heap)
        if value == previous:
            continue
        for period in periods:
            # Divisibility check without allocating the quotient Fraction.
            if (value.numerator * period.denominator) % (
                value.denominator * period.numerator
            ) == 0:
                heapq.heappush(heap, value + period)
        previous = value
        yield value


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
    (section 3.2), where ``II_d = floor(it / Tcyc_d)``.
    """
    iis = [floor_div(it, ct) for ct in speeds.cluster_cycle_times]
    for fu, needed in demand.items():
        if needed == 0:
            continue
        slots = sum(ii * machine.cluster(i).fu_count(fu) for i, ii in enumerate(iis))
        if slots < needed:
            return False
    if comms > 0:
        ii_icn = floor_div(it, speeds.icn_cycle_time)
        if machine.interconnect.n_buses * ii_icn < comms:
            return False
    if lifetimes > 0:
        reg_slots = sum(ii * machine.cluster(i).n_regs for i, ii in enumerate(iis))
        if reg_slots < lifetimes:
            return False
    return True


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
    Raises :class:`InfeasibleITError` after :data:`MAX_CANDIDATES`
    candidates (``loop`` names the loop in the message).
    """
    if capacity_ok(start, machine, speeds, demand, comms, lifetimes):
        return start
    periods = list(speeds.cluster_cycle_times)
    if comms > 0:
        periods.append(speeds.icn_cycle_time)
    for steps, it in enumerate(period_multiples(periods, start)):
        if steps >= MAX_CANDIDATES:  # pragma: no cover - safety net
            break
        if it > start and capacity_ok(
            it, machine, speeds, demand, comms, lifetimes
        ):
            return it
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
    for fu, needed in demand.items():
        if needed == 0:
            continue
        rate = sum(
            Fraction(machine.cluster(i).fu_count(fu), 1) / ct
            for i, ct in enumerate(speeds.cluster_cycle_times)
        )
        if rate == 0:
            raise InfeasibleITError(
                f"loop {ddg.name!r} needs {fu} units but the machine has none"
            )
        lower = max(lower, Fraction(needed) / rate)
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

"""Pseudo-schedules (the PACT'02 estimator the refinement relies on).

A pseudo-schedule is a fast, approximate schedule of a partitioned loop:
a single list-scheduling pass (no backtracking) over the intra-iteration
dependence graph that respects per-cluster modulo resource occupancy and
bus occupancy, and accounts for communication and synchronisation
latencies.  It is *not* a legal schedule — loop-carried conflicts are
summarised by a recurrence-violation term instead of being resolved — but
it tracks the final schedule's iteration length, communication count and
feasibility well enough to *compare partitions*, which is all the
refinement needs.

Floats are used here deliberately: the pseudo-scheduler runs in the
refinement inner loop, and its output feeds a heuristic comparison, not a
legality check.  This is the hottest function in the whole pipeline
(ED^2 refinement weighs about 110 candidate moves per schedule of a
cold evaluation), so it works entirely on the dense integer-indexed arrays
precomputed by :class:`~repro.scheduler.context.LoopAnalysis` — no enum
hashing, no object-keyed dict lookups, no per-call latency-table queries.

The pass has two steps.  :class:`Placement` places ops in
``analysis.topo_indices`` order and can stop and resume at any topological
rank; :func:`summarise` turns a complete placement into a
:class:`PseudoSchedule`.  An op's placement depends only on ops earlier in
topo order (its producers' issue times and the modulo rows they filled),
so a placement stopped at rank k holds for every partition that agrees
on the ops below rank k — refinement scores all targets of one move from
one such prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.partition import Partition


@dataclass(frozen=True)
class PseudoSchedule:
    """Summary statistics of one pseudo-scheduling pass."""

    #: Estimated iteration length, in ns.
    it_length: float
    #: Ops that found no free slot within the scan window (each is a
    #: strong signal the partition cannot be scheduled at this IT).
    overflow: int
    #: Inter-cluster communications per iteration.
    comms: int
    #: Total time (ns) by which recurrence circuits exceed their
    #: ``distance * IT`` budget under this partition.
    recurrence_violation: float
    #: Per-cluster Table 1 energy units per iteration.
    cluster_units: Tuple[float, ...]

    @property
    def feasible(self) -> bool:
        """Heuristically schedulable at this IT."""
        return self.overflow == 0 and self.recurrence_violation <= 0.0


class Placement:
    """Resumable list-scheduling state: the ops below topo rank ``rank``.

    ``issue``/``finish`` hold the placed ops' times (ns), ``fu_rows`` the
    modulo FU row counters (flat, laid out by ``ctx.fu_row_base``),
    ``bus_rows`` the bus row counters (``None`` for a gated interconnect),
    ``overflow`` and ``comms`` the running totals of the pass.
    """

    __slots__ = ("rank", "issue", "finish", "fu_rows", "bus_rows", "overflow", "comms")

    def __init__(self, ctx: SchedulingContext):
        n = ctx.analysis.n_ops
        self.rank = 0
        self.issue = [0.0] * n
        self.finish = [0.0] * n
        self.fu_rows = [0] * ctx.n_fu_rows
        icn_ii = ctx.icn_ii
        self.bus_rows: Optional[List[int]] = [0] * icn_ii if icn_ii >= 1 else None
        self.overflow = 0
        self.comms = 0

    def copy(self) -> "Placement":
        """An independent copy (the resume point for one candidate)."""
        clone = Placement.__new__(Placement)
        clone.rank = self.rank
        clone.issue = self.issue[:]
        clone.finish = self.finish[:]
        clone.fu_rows = self.fu_rows[:]
        clone.bus_rows = None if self.bus_rows is None else self.bus_rows[:]
        clone.overflow = self.overflow
        clone.comms = self.comms
        return clone

    def advance(self, ctx: SchedulingContext, assign: Sequence[int], stop: int) -> None:
        """Place the ops of topo ranks ``[rank, stop)`` under ``assign``."""
        analysis = ctx.analysis
        window = ctx.options.pseudo_window
        sync_penalties = ctx.options.sync_penalties
        cluster_ct = ctx.cluster_ct_floats
        icn_ct = ctx.icn_ct_float
        bus_latency = ctx.machine.interconnect.latency
        n_buses = ctx.machine.interconnect.n_buses
        icn_ii = ctx.icn_ii
        cluster_iis = ctx.cluster_iis
        fu_counts = ctx.cluster_fu_counts
        fu_row_base = ctx.fu_row_base
        op_fu_code = analysis.op_fu_code
        op_latency = analysis.op_latency
        pred_edges = analysis.pred_edges

        issue = self.issue
        finish = self.finish
        fu_rows = self.fu_rows
        bus_rows = self.bus_rows
        overflow = self.overflow
        comms = self.comms
        ceil = math.ceil

        for position in analysis.topo_indices[self.rank:stop]:
            cluster = assign[position]
            ct = cluster_ct[cluster]
            if ct is None:
                # Op assigned to a gated cluster: unschedulable here.
                overflow += 1
                issue[position] = 0.0
                finish[position] = 0.0
                continue
            ready = 0.0
            for src, delay, carries in pred_edges[position]:
                src_cluster = assign[src]
                src_ct = cluster_ct[src_cluster]
                if src_ct is None:
                    continue
                value_at = issue[src] + delay * src_ct
                if carries and src_cluster != cluster:
                    comms += 1
                    if icn_ct is None:
                        overflow += 1
                        if value_at > ready:
                            ready = value_at
                        continue
                    bus_ready = value_at
                    if sync_penalties and src_ct != icn_ct:
                        bus_ready = value_at + icn_ct
                    bus_cycle = ceil(bus_ready / icn_ct - 1e-9)
                    placed_bus = False
                    if bus_rows is not None:
                        limit = bus_cycle + icn_ii * window
                        while bus_cycle <= limit:
                            row = bus_cycle % icn_ii
                            if bus_rows[row] < n_buses:
                                bus_rows[row] += 1
                                placed_bus = True
                                break
                            bus_cycle += 1
                    if not placed_bus:
                        overflow += 1
                    value_at = (bus_cycle + bus_latency) * icn_ct
                    if sync_penalties and icn_ct != ct:
                        value_at += ct
                if value_at > ready:
                    ready = value_at

            ii = cluster_iis[cluster]
            cycle = ceil(ready / ct - 1e-9)
            code = op_fu_code[position]
            if code >= 0:
                base = fu_row_base[cluster][code]
                capacity = fu_counts[cluster][code]
                limit = cycle + ii * window
                placed = False
                while cycle <= limit:
                    row = base + cycle % ii
                    if fu_rows[row] < capacity:
                        fu_rows[row] += 1
                        placed = True
                        break
                    cycle += 1
                if not placed:
                    overflow += 1
            issue[position] = cycle * ct
            finish[position] = (cycle + op_latency[position]) * ct

        self.overflow = overflow
        self.comms = comms
        self.rank = max(self.rank, stop)


def summarise(
    ctx: SchedulingContext, assign: Sequence[int], placement: Placement
) -> PseudoSchedule:
    """The :class:`PseudoSchedule` of a complete placement of ``assign``."""
    analysis = ctx.analysis
    if placement.rank != analysis.n_ops:
        raise ValueError("summarise() needs a complete placement")
    cluster_ct = ctx.cluster_ct_floats
    icn_ct = ctx.icn_ct_float
    bus_latency = ctx.machine.interconnect.latency
    sync_penalties = ctx.options.sync_penalties
    it = ctx.it_float

    it_length = max(placement.finish, default=0.0)

    # Loop-carried feasibility: each recurrence circuit must close within
    # distance * IT once per-cluster latencies and copies are counted.
    violation = 0.0
    for total_distance, hops in analysis.recurrence_hops:
        total = 0.0
        for src, dst, best_delay, carries in hops:
            src_cluster = assign[src]
            dst_cluster = assign[dst]
            src_ct = cluster_ct[src_cluster]
            if src_ct is None:
                src_ct = float(
                    max(t for t in cluster_ct if t is not None)
                )
            total += best_delay * src_ct
            if carries and src_cluster != dst_cluster and icn_ct is not None:
                dst_ct = cluster_ct[dst_cluster]
                sync_in = (
                    icn_ct if sync_penalties and src_ct != icn_ct else 0.0
                )
                out_ct = dst_ct if dst_ct is not None else icn_ct
                sync_out = (
                    out_ct if sync_penalties and icn_ct != out_ct else 0.0
                )
                total += sync_in + bus_latency * icn_ct + sync_out
        budget = total_distance * it
        if total > budget + 1e-9:
            violation += total - budget

    # Summed in op-position order: a running per-move delta of these
    # (inexact) float energies would change bits.
    units = [0.0] * ctx.n_clusters
    op_energy = analysis.op_energy
    for position in range(analysis.n_ops):
        units[assign[position]] += op_energy[position]

    return PseudoSchedule(
        it_length=it_length,
        overflow=placement.overflow,
        comms=placement.comms,
        recurrence_violation=violation,
        cluster_units=tuple(units),
    )


def pseudo_schedule(ctx: SchedulingContext, partition: Partition) -> PseudoSchedule:
    """One list-scheduling pass over the partitioned loop."""
    assign = partition.vector()
    placement = Placement(ctx)
    placement.advance(ctx, assign, ctx.analysis.n_ops)
    return summarise(ctx, assign, placement)


def cluster_overload(
    ctx: SchedulingContext, cluster: int, demand: Sequence[int]
) -> int:
    """Ops beyond ``cluster``'s ``II_c * units`` FU capacity, given its
    per-FU-code ``demand`` row."""
    ii = ctx.cluster_iis[cluster]
    counts = ctx.cluster_fu_counts[cluster]
    total = 0
    for code, needed in enumerate(demand):
        excess = needed - ii * counts[code]
        if excess > 0:
            total += excess
    return total


def capacity_overload(ctx: SchedulingContext, demand: Sequence[Sequence[int]]) -> int:
    """Total FU-capacity overload of a per-cluster demand matrix."""
    return sum(
        cluster_overload(ctx, cluster, row) for cluster, row in enumerate(demand)
    )


def estimated_cost(
    ctx: SchedulingContext, overload: int, ps: PseudoSchedule
) -> Tuple[float, float]:
    """:func:`partition_cost` from its capacity overload and pseudo-schedule.

    The infeasibility is never below ``overload``: the other two terms
    are non-negative.
    """
    # Integer counts, so one float conversion equals the running sum.
    infeasibility = float(overload + ps.overflow)
    infeasibility += ps.recurrence_violation / max(ctx.it_float, 1e-12)

    weights = ctx.weights
    time_estimate = (ctx.trip_count - 1) * ctx.it_float + ps.it_length
    dynamic = weights.e_ins_unit * sum(
        delta * units for delta, units in zip(ctx.cluster_deltas, ps.cluster_units)
    )
    dynamic += ctx.icn_delta * weights.e_comm * ps.comms
    static = time_estimate * (
        weights.static_rate_per_cluster * sum(ctx.cluster_sigmas)
        + weights.static_rate_icn * ctx.icn_sigma
    )
    energy = dynamic + static
    return (infeasibility, energy * time_estimate * time_estimate)


def partition_cost(
    ctx: SchedulingContext, partition: Partition
) -> Tuple[float, float]:
    """Lexicographic cost of a partition: (infeasibility, estimated ED^2).

    The first component must be zero for a schedulable partition: it sums
    capacity overload, pseudo-schedule overflow and recurrence violations.
    The second applies the section 3.1 energy model (with the context's
    weights and delta/sigma factors) to the pseudo-schedule and multiplies
    by the estimated squared execution time.
    """
    overload = capacity_overload(ctx, partition.demand_matrix())
    return estimated_cost(ctx, overload, pseudo_schedule(ctx, partition))

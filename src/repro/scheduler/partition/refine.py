"""Partition refinement (section 4.1.2).

Two heuristics, applied at every level of the macro hierarchy from
coarsest to finest:

1. **Balance** — while some cluster's per-FU demand exceeds
   ``II_c * units``, greedily move the macro whose relocation reduces the
   total overload the most.
2. **ED^2 moves** — propose moving each macro to every other usable
   cluster, score candidates with the pseudo-schedule + section 3.1
   energy model (:func:`repro.scheduler.pseudo.partition_cost`), and keep
   the best strictly-improving move; repeat until a pass makes no move.

Moves at a coarse level relocate whole macros; at the finest level
individual operations move, which is where the paper allows recurrences
to be split if profitable.

Candidates never build a :class:`Partition` (the incremental gain
update of Fiduccia & Mattheyses): a candidate's capacity overload comes
from the demand rows the move changes.  An ED^2 candidate whose overload
alone exceeds the best infeasibility so far cannot win and is skipped;
the others are looked up in the context's cost memo, else scored by a
pseudo-schedule resumed at the move's first topo rank from one running
prefix of the current assignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.machine.fu import N_FU_KINDS
from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.coarsen import CoarseningResult, Macro
from repro.scheduler.partition.partition import Partition
from repro.scheduler.pseudo import (
    Placement,
    cluster_overload,
    estimated_cost,
    partition_cost,
    summarise,
)
from repro.telemetry import counter, span_count

#: ED^2 refinement candidates by outcome: ``scored`` (a pseudo-schedule
#: ran), ``memo_hit`` (the vector was scored before under the same
#: context) or ``capacity_pruned`` (its overload alone rules it out).
#: Counted per ``ed2_refine`` call and flushed once.
_ED2_CANDIDATES = counter(
    "repro_scheduler_ed2_candidates_total",
    "ED^2 refinement candidate moves, by outcome",
)


class _MoveScorer:
    """Scores relocations of op sets off one current assignment.

    ``assign`` and ``demand`` are scratch copies of the current
    partition's vector and demand matrix; a candidate patches ``assign``
    and restores it, and reads its capacity overload off the demand rows
    it would change.  ``prefix`` places the current assignment up to
    some topo rank.  ``outcomes`` counts candidates per
    ``repro_scheduler_ed2_candidates_total`` outcome.
    """

    def __init__(self, ctx: SchedulingContext, partition: Partition):
        self.ctx = ctx
        self.assign: List[int] = list(partition.vector())
        self.demand: List[List[int]] = [list(row) for row in partition.demand_matrix()]
        #: ``II_c * units`` per cluster and FU code.
        self.capacity = [
            tuple(ii * count for count in counts)
            for ii, counts in zip(ctx.cluster_iis, ctx.cluster_fu_counts)
        ]
        self.row_overload = [
            cluster_overload(ctx, cluster, row)
            for cluster, row in enumerate(self.demand)
        ]
        self.overload = sum(self.row_overload)
        self.prefix = Placement(ctx)
        self.outcomes = {"scored": 0, "memo_hit": 0, "capacity_pruned": 0}

    def outflow(self, positions: Sequence[int]) -> Dict[int, List[int]]:
        """The ops' demand by FU code, per cluster now hosting them."""
        assign = self.assign
        codes = self.ctx.analysis.op_fu_code
        flow: Dict[int, List[int]] = {}
        for position in positions:
            code = codes[position]
            if code >= 0:
                source = assign[position]
                row = flow.get(source)
                if row is None:
                    row = flow[source] = [0] * N_FU_KINDS
                row[code] += 1
        return flow

    def overload_if_moved(self, flow: Dict[int, List[int]], target: int) -> int:
        """Capacity overload once the ops of ``flow`` move to ``target``."""
        demand = self.demand
        capacity = self.capacity
        row_overload = self.row_overload
        total = self.overload - row_overload[target]
        arriving = list(demand[target])
        for source, counts in flow.items():
            if source == target:
                continue
            total -= row_overload[source]
            for needed, count, limit in zip(demand[source], counts, capacity[source]):
                if needed - count > limit:
                    total += needed - count - limit
            for code, count in enumerate(counts):
                arriving[code] += count
        for needed, limit in zip(arriving, capacity[target]):
            if needed > limit:
                total += needed - limit
        return total

    def cost_if_moved(
        self, positions: Sequence[int], first: int, target: int, overload: int
    ) -> Tuple[float, float]:
        """:func:`partition_cost` once ``positions`` move to ``target``.

        ``first`` is the ops' lowest topo rank and ``overload`` the
        move's capacity overload (:meth:`overload_if_moved`).
        """
        ctx = self.ctx
        assign = self.assign
        previous = [assign[position] for position in positions]
        for position in positions:
            assign[position] = target
        key = tuple(assign)
        cost = ctx.cost_memo.get(key)
        if cost is None:
            # Ranks below ``first`` hold no moved op, so the prefix of
            # the current assignment is the candidate's prefix too.
            if self.prefix.rank > first:
                self.prefix = Placement(ctx)
            if self.prefix.rank < first:
                self.prefix.advance(ctx, assign, first)
            placement = self.prefix.copy()
            placement.advance(ctx, assign, ctx.analysis.n_ops)
            cost = estimated_cost(ctx, overload, summarise(ctx, assign, placement))
            ctx.cost_memo[key] = cost
            self.outcomes["scored"] += 1
        else:
            self.outcomes["memo_hit"] += 1
        for position, cluster in zip(positions, previous):
            assign[position] = cluster
        return cost

    def move(self, positions: Sequence[int], target: int, first: int = 0) -> None:
        """Make the move current.

        ``first`` bounds the ops' topo ranks from below; the prefix
        below it stays valid.
        """
        flow = self.outflow(positions)
        self.overload = self.overload_if_moved(flow, target)
        demand = self.demand
        for source, counts in flow.items():
            for code, count in enumerate(counts):
                demand[source][code] -= count
                demand[target][code] += count
        for cluster in (target, *flow):
            self.row_overload[cluster] = cluster_overload(
                self.ctx, cluster, demand[cluster]
            )
        for position in positions:
            self.assign[position] = target
        if self.prefix.rank > first:
            self.prefix = Placement(self.ctx)


def _positions(
    ctx: SchedulingContext, macros: Sequence[Macro]
) -> List[Tuple[int, ...]]:
    """Each macro's op positions, in macro op order."""
    index = ctx.analysis.op_index
    return [tuple(index[op] for op in macro.ops) for macro in macros]


def balance(
    ctx: SchedulingContext,
    partition: Partition,
    macros: Sequence[Macro],
) -> Partition:
    """Greedy overload reduction by whole-macro moves."""
    usable = ctx.usable_clusters()
    current = partition
    scorer = _MoveScorer(ctx, current)
    moves = _positions(ctx, macros)
    assign = scorer.assign
    overload = scorer.overload
    while overload > 0:
        best: Tuple[int, int, int] | None = None  # (overload, macro, dst)
        for index, positions in enumerate(moves):
            source = assign[positions[0]]
            flow = scorer.outflow(positions)
            for target in usable:
                if target == source:
                    continue
                candidate_overload = scorer.overload_if_moved(flow, target)
                if candidate_overload < overload and (
                    best is None or candidate_overload < best[0]
                ):
                    best = (candidate_overload, index, target)
        if best is None:
            break
        overload, index, target = best
        scorer.move(moves[index], target)
        current = current.moved(macros[index].ops, target)
    return current


def ed2_refine(
    ctx: SchedulingContext,
    partition: Partition,
    macros: Sequence[Macro],
) -> Partition:
    """Best-improvement ED^2 moves until a pass changes nothing."""
    usable = ctx.usable_clusters()
    current = partition
    scorer = _MoveScorer(ctx, current)
    assign = scorer.assign
    key = tuple(assign)
    current_cost = ctx.cost_memo.get(key)
    if current_cost is None:
        current_cost = ctx.cost_memo[key] = partition_cost(ctx, current)
    rank = ctx.analysis.topo_rank
    moves = [
        (macro, positions, min(rank[position] for position in positions))
        for macro, positions in zip(macros, _positions(ctx, macros))
    ]
    for _ in range(ctx.options.refinement_passes):
        moved = False
        for macro, positions, first in moves:
            source = assign[positions[0]]
            best_target: Optional[int] = None
            best_cost = current_cost
            flow = scorer.outflow(positions)
            for target in usable:
                if target == source:
                    continue
                overload = scorer.overload_if_moved(flow, target)
                if overload > best_cost[0]:
                    # Infeasibility >= overload > best: cannot win.
                    scorer.outcomes["capacity_pruned"] += 1
                    continue
                cost = scorer.cost_if_moved(positions, first, target, overload)
                if cost < best_cost:
                    best_cost = cost
                    best_target = target
            if best_target is not None:
                scorer.move(positions, best_target, first)
                current = current.moved(macro.ops, best_target)
                current_cost = best_cost
                moved = True
        if not moved:
            break
    for outcome, n in scorer.outcomes.items():
        _ED2_CANDIDATES.inc(n, outcome=outcome)
        span_count(f"ed2_{outcome}", n)
    return current


def refine(
    ctx: SchedulingContext,
    partition: Partition,
    coarsening: CoarseningResult,
) -> Partition:
    """Walk the hierarchy coarsest -> finest applying both heuristics."""
    current = partition
    for level in reversed(coarsening.levels):
        current = balance(ctx, current, level)
        if ctx.options.ed2_refinement:
            current = ed2_refine(ctx, current, level)
    return current

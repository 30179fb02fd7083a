"""Recurrence pre-placement and multilevel coarsening (section 4.1.1).

Before coarsening, recurrences that do not fit in every cluster (their
delay exceeds ``distance * II_c`` for some cluster c) are pinned — most
critical first — to the *slowest* cluster that can still schedule them,
keeping energy down while guaranteeing feasibility.  Overlapping
recurrences are co-located.

Coarsening then repeatedly merges macronode pairs connected by the
heaviest value-edge traffic (a matching per round), never merging two
macros pinned to different clusters and never growing a macro beyond a
fair share of the machine, until no more merges apply or only as many
macros as usable clusters remain.  Every round is retained so refinement
can walk the hierarchy from coarsest to finest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PartitionError
from repro.ir.operation import Operation
from repro.machine.fu import N_FU_KINDS
from repro.scheduler.context import SchedulingContext
from repro.scheduler.partition.partition import Partition


@dataclass(frozen=True)
class Macro:
    """A macronode: a set of operations moved as a unit."""

    ident: int
    ops: Tuple[Operation, ...]
    pinned: Optional[int] = None

    @property
    def size(self) -> int:
        """Operation count."""
        return len(self.ops)

    def fu_demand(self, ctx: SchedulingContext) -> List[int]:
        """Per-FU demand of the macro, indexed by dense FU code."""
        analysis = ctx.analysis
        op_index, op_fu_code = analysis.op_index, analysis.op_fu_code
        demand = [0] * N_FU_KINDS
        for op in self.ops:
            code = op_fu_code[op_index[op]]
            if code >= 0:
                demand[code] += 1
        return demand


@dataclass(frozen=True)
class CoarseningResult:
    """The macro hierarchy: ``levels[0]`` finest, ``levels[-1]`` coarsest."""

    levels: Tuple[Tuple[Macro, ...], ...]

    @property
    def coarsest(self) -> Tuple[Macro, ...]:
        """The final (smallest) macro set."""
        return self.levels[-1]


# ----------------------------------------------------------------------
# recurrence pre-placement
# ----------------------------------------------------------------------
def preplace_recurrences(ctx: SchedulingContext) -> Dict[Operation, int]:
    """Pin critical recurrences to the slowest feasible clusters.

    Returns the operation -> cluster pins.  Raises
    :class:`PartitionError` when some recurrence fits nowhere at the
    current IT (the driver reacts by increasing the IT).
    """
    pins: Dict[Operation, int] = {}
    op_index, op_fu_code = ctx.analysis.op_index, ctx.analysis.op_fu_code
    # Pinned FU demand per cluster, indexed by dense FU code.
    used: List[List[int]] = [[0] * N_FU_KINDS for _ in range(ctx.n_clusters)]

    def fits(cluster: int, recurrence) -> bool:
        ii = ctx.cluster_iis[cluster]
        if ii < 1:
            return False
        if recurrence.total_delay > recurrence.total_distance * ii:
            return False
        demand = list(used[cluster])
        for op in recurrence.operations:
            if op in pins:
                continue  # already accounted on its own cluster
            code = op_fu_code[op_index[op]]
            if code >= 0:
                demand[code] += 1
        units = ctx.cluster_fu_counts[cluster]
        return all(needed <= ii * unit for needed, unit in zip(demand, units))

    slowest_first = [
        index
        for index in ctx.point.sorted_cluster_indices_slowest_first()
        if ctx.cluster_iis[index] >= 1
    ]

    for recurrence in ctx.recurrences:  # already most-critical-first
        fits_everywhere = all(
            recurrence.total_delay <= recurrence.total_distance * ctx.cluster_iis[c]
            for c in range(ctx.n_clusters)
            if ctx.cluster_iis[c] >= 1
        )
        pinned_clusters = {pins[op] for op in recurrence.operations if op in pins}
        if len(pinned_clusters) > 1:
            # Overlapping recurrences were already split across clusters —
            # cannot happen with this ordering, but guard anyway.
            raise PartitionError(
                f"recurrence spans clusters {sorted(pinned_clusters)}"
            )
        if pinned_clusters:
            target = next(iter(pinned_clusters))
            if not fits(target, recurrence):
                raise PartitionError(
                    f"recurrence through {recurrence.operations[0].name} cannot "
                    f"join its overlapping recurrence on cluster {target}"
                )
        else:
            if fits_everywhere:
                continue  # coarsening handles it
            target = None
            for cluster in slowest_first:
                if fits(cluster, recurrence):
                    target = cluster
                    break
            if target is None:
                raise PartitionError(
                    f"recurrence through {recurrence.operations[0].name} fits in "
                    f"no cluster at IT={ctx.it}"
                )
        for op in recurrence.operations:
            if op not in pins:
                pins[op] = target
                code = op_fu_code[op_index[op]]
                if code >= 0:
                    used[target][code] += 1
    return pins


# ----------------------------------------------------------------------
# coarsening
# ----------------------------------------------------------------------
def _initial_macros(
    ctx: SchedulingContext, pins: Dict[Operation, int]
) -> List[Macro]:
    """Finest level: one macro per pinned recurrence group, singletons else.

    Pinned ops are grouped by connected recurrence membership (union of
    overlapping recurrences), so a pinned recurrence moves as a unit until
    refinement reaches the finest level.
    """
    parent: Dict[Operation, Operation] = {}

    def find(op: Operation) -> Operation:
        root = op
        while parent.get(root, root) is not root:
            root = parent[root]
        while parent.get(op, op) is not op:
            parent[op], op = root, parent[op]
        return root

    def union(a: Operation, b: Operation) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    for recurrence in ctx.recurrences:
        members = [op for op in recurrence.operations if op in pins]
        for first, second in zip(members, members[1:]):
            union(first, second)

    groups: Dict[Operation, List[Operation]] = {}
    for op in ctx.ddg.operations:
        if op in pins:
            groups.setdefault(find(op), []).append(op)

    macros: List[Macro] = []
    ident = 0
    emitted = set()
    for op in ctx.ddg.operations:
        if op in pins:
            root = find(op)
            if root in emitted:
                continue
            emitted.add(root)
            members = groups[root]
            macros.append(Macro(ident, tuple(members), pinned=pins[members[0]]))
        else:
            macros.append(Macro(ident, (op,)))
        ident += 1
    return macros


def _edge_weights(
    ctx: SchedulingContext, macros: List[Macro]
) -> Dict[Tuple[int, int], int]:
    """Value-edge counts between macro pairs (unordered)."""
    owner: Dict[Operation, int] = {}
    for position, macro in enumerate(macros):
        for op in macro.ops:
            owner[op] = position
    weights: Dict[Tuple[int, int], int] = {}
    for dep in ctx.ddg.dependences:
        if not dep.carries_value:
            continue
        a, b = owner[dep.src], owner[dep.dst]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        weights[key] = weights.get(key, 0) + 1
    return weights


def coarsen(
    ctx: SchedulingContext, pins: Optional[Dict[Operation, int]] = None
) -> CoarseningResult:
    """Build the macro hierarchy by repeated heavy-edge matching."""
    pins = pins if pins is not None else {}
    current = _initial_macros(ctx, pins)
    levels: List[Tuple[Macro, ...]] = [tuple(current)]

    n_usable = max(len(ctx.usable_clusters()), 1)
    total_ops = len(ctx.ddg)
    size_limit = max(2, -(-total_ops // n_usable))  # ceil division

    while len(current) > n_usable:
        weights = _edge_weights(ctx, current)
        # Heaviest edges first; deterministic tie-break on indices.
        candidates = sorted(
            weights.items(), key=lambda item: (-item[1], item[0])
        )
        matched = set()
        merges: List[Tuple[int, int]] = []
        for (a, b), _weight in candidates:
            if a in matched or b in matched:
                continue
            left, right = current[a], current[b]
            if (
                left.pinned is not None
                and right.pinned is not None
                and left.pinned != right.pinned
            ):
                continue
            if left.size + right.size > size_limit:
                continue
            matched.update((a, b))
            merges.append((a, b))
            if len(current) - len(merges) <= n_usable:
                break
        if not merges:
            break
        merged_away = {b for _a, b in merges}
        pair_of = {a: b for a, b in merges}
        next_level: List[Macro] = []
        ident = 0
        for position, macro in enumerate(current):
            if position in merged_away:
                continue
            if position in pair_of:
                other = current[pair_of[position]]
                pinned = macro.pinned if macro.pinned is not None else other.pinned
                next_level.append(
                    Macro(ident, macro.ops + other.ops, pinned=pinned)
                )
            else:
                next_level.append(Macro(ident, macro.ops, pinned=macro.pinned))
            ident += 1
        current = next_level
        levels.append(tuple(current))

    return CoarseningResult(levels=tuple(levels))


def initial_partition(
    ctx: SchedulingContext, coarsening: CoarseningResult
) -> Partition:
    """Assign the coarsest macros to clusters.

    Pinned macros go to their pins; the rest are placed largest-first on
    the usable cluster that minimises capacity overload, preferring
    slower clusters on ties (they consume less energy).
    """
    usable = ctx.usable_clusters()
    if not usable:
        raise PartitionError("no usable cluster at this IT")
    # Placed FU demand per cluster, indexed by dense FU code.
    demand: List[List[int]] = [[0] * N_FU_KINDS for _ in range(ctx.n_clusters)]
    assignment: Dict[Operation, int] = {}

    def overload_after(cluster: int, extra: List[int]) -> int:
        ii = ctx.cluster_iis[cluster]
        return sum(
            max(0, placed + more - ii * unit)
            for placed, more, unit in zip(
                demand[cluster], extra, ctx.cluster_fu_counts[cluster]
            )
        )

    def place(macro: Macro, cluster: int) -> None:
        for op in macro.ops:
            assignment[op] = cluster
        for code, more in enumerate(macro.fu_demand(ctx)):
            demand[cluster][code] += more

    pending: List[Macro] = []
    for macro in coarsening.coarsest:
        if macro.pinned is not None:
            place(macro, macro.pinned)
        else:
            pending.append(macro)

    # Rank 0 is the slowest cycle time; equal cycle times share a rank.
    cycle_times = [
        ctx.point.cluster_setting(c).cycle_time for c in range(ctx.n_clusters)
    ]
    slow_rank = {
        ct: rank for rank, ct in enumerate(sorted(set(cycle_times), reverse=True))
    }
    slowness = [slow_rank[ct] for ct in cycle_times]
    for macro in sorted(pending, key=lambda m: (-m.size, m.ident)):
        extra = macro.fu_demand(ctx)
        best = min(
            usable,
            key=lambda c: (overload_after(c, extra), slowness[c], c),
        )
        place(macro, best)

    return Partition(ctx.ddg, ctx.n_clusters, assignment)

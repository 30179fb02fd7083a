"""Equivalence tests guarding the hot-path rewrites.

Families:

* **recMII** — the integer-scaled SPFA positive-cycle oracle behind
  :func:`rec_mii_lawler` must agree exactly with the elementary-circuit
  enumeration on random DDGs, across several latency tables (the oracle
  is exact integer arithmetic, so equality is ``==`` on Fractions, not
  approximate).
* **MRT** — the array-backed :class:`ModuloReservationTable` must be
  observably identical to the old dict-of-lists implementation; a
  reference model (the seed implementation, verbatim semantics) is
  driven with the same random probe/reserve/release/evict traffic and
  every observable (including raised errors) is compared.
* **ED^2 refinement** — the incremental move scoring (cost memo,
  capacity prune, shared-prefix pseudo-schedules, demand deltas) must
  pick exactly the moves of the full-rescoring refinement it replaced,
  kept below verbatim as the oracle; each incremental score must ``==``
  the full :func:`partition_cost` of the moved partition.
* **IT search** — ``resMIT``, the section 3.2 time model and the
  scheduler's candidate stream share one period-multiple merge and one
  capacity check; the four separate copies they replaced are kept below
  verbatim, and every MIT, time-model IT and candidate prefix must ``==``
  theirs, on random periods, palettes and demands and on every loop of
  the SPEC2000 corpora.
* **Integer time grid** — the kernel's earliest-time, bus-window and
  deadline queries, the schedule's validation, ``it_length`` and
  register lifetimes, ``capacity_ok``/``period_multiples``/
  ``min_feasible_it`` and the seed partition compute on ints of one
  quantum; the parent's Fraction versions are kept below verbatim and
  every result (and every raised error) must ``==`` theirs, on
  non-decimal periods, gated clusters, loop-carried edges and with
  synchronisation penalties off.
"""

import gc
import heapq as _heapq
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CalibrationError,
    ConfigurationError,
    InfeasibleITError,
    PartitionError,
    SchedulingError,
    SimulationError,
)
from repro.ir.analysis import (
    edge_delay,
    find_recurrences,
    rec_mii,
    rec_mii_lawler,
)
from repro.ir.builder import DDGBuilder
from repro.ir.ddg import DDG
from repro.ir.opcodes import COMPUTE_CLASSES, OpClass
from repro.machine import DomainSetting, OperatingPoint
from repro.machine.clocking import ICN_DOMAIN, FrequencyPalette, cluster_domain
from repro.machine.cluster import ClusterConfig
from repro.machine.fu import FUType, fu_for
from repro.machine.isa import ClassEntry, InstructionTable
from repro.machine.machine import MachineDescription, paper_machine
from repro.machine.operating_point import MachineSpeeds
from repro.pipeline import Experiment, ExperimentOptions
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.scheduler.context import PartitionEnergyWeights, SchedulingContext
from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler
from repro.scheduler.ii_selection import iter_it_candidates, select_assignments
from repro.scheduler.kernel import KernelScheduler
from repro.scheduler.mii import (
    MAX_CANDIDATES,
    SpeedsContext,
    capacity_ok,
    demand_codes,
    min_feasible_it,
    minimum_initiation_time,
    period_multiples,
    rec_mit,
    res_mit,
)
from repro.scheduler.mrt import ModuloReservationTable
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.partition import Partition, build_partition
from repro.scheduler.partition.coarsen import (
    coarsen,
    initial_partition,
    preplace_recurrences,
)
from repro.scheduler.partition.refine import _ED2_CANDIDATES, _MoveScorer, refine
from repro.scheduler.pseudo import (
    PseudoSchedule,
    capacity_overload,
    partition_cost,
    pseudo_schedule,
)
from repro.scheduler.schedule import DomainAssignment, PlacedCopy, PlacedOp, Schedule
from repro.telemetry import disable_tracing, enable_tracing, span, tracing_enabled
from repro.power import TechnologyModel
from repro.power.breakdown import EnergyBreakdown
from repro.power.calibration import CalibratedUnits, calibrate
from repro.power.energy import EnergyEstimate, EnergyModel, EventCounts
from repro.power.metrics import ed2
from repro.power.profile import LoopProfile, ProgramProfile
from repro.power.scaling import dynamic_scale, static_scale
from repro.power.time_model import LoopTimeEstimate, TimeModel
from repro.units import Time, as_fraction, ceil_div, floor_div
from repro.vfs.candidates import DesignSpaceSpec, volt_grid
from repro.vfs.homogeneous import optimum_homogeneous
from repro.vfs.selector import (
    ConfigurationSelector,
    SelectionResult,
    VoltageTable,
    effective_fast_share,
)
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

ISA = paper_machine().isa

#: Latency tables with deliberately different ratios, to exercise the
#: scaled oracle away from the paper's defaults.
TABLES = [
    ISA,
    InstructionTable.paper_defaults(uniform_energy=True).with_entry(
        OpClass.FMUL, ClassEntry(11, 1.5)
    ),
    InstructionTable.paper_defaults().with_entry(
        OpClass.IADD, ClassEntry(3, 1.0)
    ),
]


def random_ddg(rng: random.Random, max_ops: int = 12):
    """A random valid DDG: a flow DAG plus random loop-carried edges."""
    n = rng.randint(2, max_ops)
    b = DDGBuilder(f"rand{rng.random():.6f}")
    ops = [
        b.op(f"n{i}", rng.choice(COMPUTE_CLASSES)) for i in range(n)
    ]
    for j in range(1, n):
        for i in rng.sample(range(j), k=min(j, rng.randint(0, 2))):
            b.flow(ops[i], ops[j])
    for _ in range(rng.randint(0, 4)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        b.flow(ops[src], ops[dst], distance=rng.randint(1, 3))
    return b.build()


def _bellman_ford_oracle(ddg, table, rate: Fraction) -> bool:
    """The seed's rational Bellman-Ford positive-cycle test, verbatim."""
    from repro.ir.analysis import edge_delay

    ops = ddg.operations
    potential = {op: Fraction(0) for op in ops}
    edges = [
        (d.src, d.dst, Fraction(edge_delay(d, table)) - rate * d.distance)
        for d in ddg.dependences
    ]
    for _ in range(len(ops)):
        changed = False
        for src, dst, weight in edges:
            candidate = potential[src] + weight
            if candidate > potential[dst]:
                potential[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def adversarial_ddg(rng: random.Random):
    """DDGs with latency-override parallel edges: nodes with many
    in-edges can legitimately improve more than |V| times during SPFA,
    which broke a naive update-count cycle criterion."""
    n = rng.randint(2, 8)
    b = DDGBuilder(f"adv{rng.random():.6f}")
    ops = [b.op(f"n{i}", rng.choice(COMPUTE_CLASSES)) for i in range(n)]
    for j in range(1, n):
        for i in rng.sample(range(j), k=min(j, rng.randint(0, 3))):
            b.dep(ops[i], ops[j], latency=rng.choice([None, 1, 3, 4]))
    for _ in range(rng.randint(0, 5)):
        b.dep(
            ops[rng.randrange(n)],
            ops[rng.randrange(n)],
            distance=rng.randint(1, 3),
            latency=rng.choice([None, 1, 3, 4]),
        )
    ddg = b.build(validate=False)
    if ddg.topological_order(intra_iteration_only=True) is None:
        return None
    return ddg


class TestPositiveCycleOracle:
    """The integer SPFA oracle must decide exactly the seed's predicate."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_bellman_ford_on_adversarial_graphs(self, seed):
        from repro.ir.analysis import _has_positive_cycle

        rng = random.Random(5000 + seed)
        ddg = adversarial_ddg(rng)
        if ddg is None:
            return
        for rate in (
            Fraction(0),
            Fraction(1),
            Fraction(5, 2),
            Fraction(3),
            Fraction(9),
        ):
            assert _has_positive_cycle(ddg, ISA, rate) == _bellman_ford_oracle(
                ddg, ISA, rate
            ), (ddg.to_edge_list(), rate)


class TestRecMIIEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_lawler_matches_enumeration_across_tables(self, seed):
        rng = random.Random(seed)
        ddg = random_ddg(rng)
        for table in TABLES:
            exact = rec_mii(ddg, table)
            lawler = rec_mii_lawler(ddg, table)
            assert lawler == exact, (ddg.to_edge_list(), table)
            assert isinstance(lawler, Fraction)

    def test_memoized_recurrences_are_fresh_lists(self):
        ddg = random_ddg(random.Random(7))
        first = find_recurrences(ddg, ISA)
        first_copy = list(first)
        first.append("poison")  # caller-side mutation
        second = find_recurrences(ddg, ISA)
        assert second == first_copy

    def test_dropped_ddgs_are_garbage_collected(self):
        # The weak memos (edge data + loop analysis) must not pin their
        # keys: a dropped corpus has to actually free its graphs.
        import gc
        import weakref

        from repro.scheduler.context import loop_analysis

        ddg = random_ddg(random.Random(11))
        rec_mii(ddg, ISA)  # populate the analysis memo
        analysis = loop_analysis(ddg, ISA)
        assert analysis.ddg is ddg
        witness = weakref.ref(ddg)
        del ddg, analysis
        gc.collect()
        assert witness() is None

    def test_memo_invalidated_when_graph_grows(self):
        b = DDGBuilder("growing")
        first = b.op("a", OpClass.FADD)
        second = b.op("b", OpClass.FADD)
        b.flow(first, second)
        b.flow(second, first, distance=1)
        ddg = b.build()
        before = rec_mii(ddg, ISA)
        # Tighten the recurrence by adding a parallel slow path.
        from repro.ir.dependence import Dependence
        from repro.ir.operation import Operation

        extra = ddg.add_operation(Operation("c", OpClass.FDIV))
        ddg.add_dependence(Dependence(second, extra))
        ddg.add_dependence(Dependence(extra, first, distance=1))
        after = rec_mii(ddg, ISA)
        assert after > before


# ----------------------------------------------------------------------
# reference MRT: the seed's dict-of-lists implementation, verbatim
# ----------------------------------------------------------------------
class DictMRT:
    def __init__(self, ii, capacities):
        if ii < 1:
            raise SchedulingError(f"reservation table needs II >= 1, got {ii}")
        self._ii = ii
        self._capacities = dict(capacities)
        self._slots = {}

    @property
    def ii(self):
        return self._ii

    def capacity(self, kind):
        return self._capacities.get(kind, 0)

    def occupancy(self, cycle, kind):
        return len(self._slots.get((cycle % self._ii, kind), ()))

    def is_free(self, cycle, kind):
        return self.occupancy(cycle, kind) < self.capacity(kind)

    def occupants(self, cycle, kind):
        return tuple(self._slots.get((cycle % self._ii, kind), ()))

    def reserve(self, cycle, kind, token):
        if not self.is_free(cycle, kind):
            raise SchedulingError("full")
        self._slots.setdefault((cycle % self._ii, kind), []).append(token)

    def release(self, cycle, kind, token):
        occupants = self._slots.get((cycle % self._ii, kind), [])
        for index, occupant in enumerate(occupants):
            if occupant is token:
                del occupants[index]
                return
        raise SchedulingError("absent")

    def force_reserve(self, cycle, kind, token):
        if self.capacity(kind) < 1:
            raise SchedulingError("no instances")
        key = (cycle % self._ii, kind)
        evicted = tuple(self._slots.get(key, ()))
        self._slots[key] = [token]
        return evicted


class TestMRTEquivalence:
    KINDS = ("int", "fp", "mem", "ghost")  # ghost: capacity-0 queries

    def _machines(self, rng):
        ii = rng.randint(1, 6)
        capacities = {
            "int": rng.randint(0, 2),
            "fp": rng.randint(1, 2),
            "mem": rng.randint(1, 3),
        }
        return (
            ModuloReservationTable(ii, capacities),
            DictMRT(ii, capacities),
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_random_traffic_observably_identical(self, seed):
        rng = random.Random(1000 + seed)
        fast, reference = self._machines(rng)
        tokens = [object() for _ in range(8)]
        for _step in range(300):
            cycle = rng.randint(0, 20)
            kind = rng.choice(self.KINDS)
            token = rng.choice(tokens)
            action = rng.randrange(6)
            if action == 0:
                assert fast.is_free(cycle, kind) == reference.is_free(
                    cycle, kind
                )
            elif action == 1:
                assert fast.occupancy(cycle, kind) == reference.occupancy(
                    cycle, kind
                )
                assert fast.occupants(cycle, kind) == reference.occupants(
                    cycle, kind
                )
                assert fast.capacity(kind) == reference.capacity(kind)
            elif action == 2:
                outcome_fast = outcome_ref = "ok"
                try:
                    fast.reserve(cycle, kind, token)
                except SchedulingError:
                    outcome_fast = "raise"
                try:
                    reference.reserve(cycle, kind, token)
                except SchedulingError:
                    outcome_ref = "raise"
                assert outcome_fast == outcome_ref
            elif action == 3:
                outcome_fast = outcome_ref = "ok"
                try:
                    fast.release(cycle, kind, token)
                except SchedulingError:
                    outcome_fast = "raise"
                try:
                    reference.release(cycle, kind, token)
                except SchedulingError:
                    outcome_ref = "raise"
                assert outcome_fast == outcome_ref
            elif action == 4:
                evicted_fast = evicted_ref = None
                try:
                    evicted_fast = fast.force_reserve(cycle, kind, token)
                except SchedulingError:
                    pass
                try:
                    evicted_ref = reference.force_reserve(cycle, kind, token)
                except SchedulingError:
                    pass
                assert evicted_fast == evicted_ref
            else:
                # Cross-check a full row scan (probe path of the kernel).
                for probe in range(fast.ii):
                    assert fast.is_free(probe, kind) == reference.is_free(
                        probe, kind
                    )

    def test_eviction_returns_all_occupants_in_order(self):
        table = ModuloReservationTable(2, {"int": 3})
        table.reserve(0, "int", "a")
        table.reserve(2, "int", "b")  # same row (2 % 2 == 0)
        table.reserve(0, "int", "c")
        assert table.occupants(0, "int") == ("a", "b", "c")
        assert table.force_reserve(4, "int", "d") == ("a", "b", "c")
        assert table.occupants(0, "int") == ("d",)
        assert table.occupancy(0, "int") == 1


class TestIntegerDivFastPath:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_rational_definition(self, seed):
        import math

        rng = random.Random(seed)
        for _ in range(50):
            value = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            unit = Fraction(rng.randint(1, 50), rng.randint(1, 20))
            assert ceil_div(value, unit) == math.ceil(value / unit)
            assert floor_div(value, unit) == math.floor(value / unit)
            n, d = rng.randint(0, 1000), rng.randint(1, 60)
            assert ceil_div(n, d) == math.ceil(Fraction(n, d))
            assert floor_div(n, d) == math.floor(Fraction(n, d))

    def test_rejects_non_positive_units(self):
        with pytest.raises(ValueError):
            ceil_div(Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            floor_div(3, -2)
        with pytest.raises(ValueError):
            ceil_div(Fraction(1), Fraction(-1, 3))


# ----------------------------------------------------------------------
# reference ED^2 refinement: the full-rescoring loop it replaced, verbatim
# (pseudo_schedule, partition_cost, balance, ed2_refine, refine)
# ----------------------------------------------------------------------
def reference_pseudo_schedule(ctx, partition):
    """One list-scheduling pass over the partitioned loop."""
    analysis = ctx.analysis
    machine = ctx.machine
    it = ctx.it_float
    window = ctx.options.pseudo_window
    sync_penalties = ctx.options.sync_penalties

    assign = partition.vector()
    cluster_ct = ctx.cluster_ct_floats
    icn_ct = ctx.icn_ct_float
    bus_latency = machine.interconnect.latency
    n_buses = machine.interconnect.n_buses
    icn_ii = ctx.icn_ii
    cluster_iis = ctx.cluster_iis
    fu_counts = ctx.cluster_fu_counts
    op_fu_code = analysis.op_fu_code
    op_latency = analysis.op_latency
    op_energy = analysis.op_energy
    pred_edges = analysis.pred_edges

    # Modulo occupancy counters: per cluster, one row array per FU code.
    fu_rows = []
    for index in range(machine.n_clusters):
        ii = cluster_iis[index]
        fu_rows.append(
            [[0] * ii for _ in fu_counts[index]] if ii >= 1 else None
        )
    bus_rows = [0] * icn_ii if icn_ii >= 1 else None

    n = analysis.n_ops
    issue = [0.0] * n
    finish = [0.0] * n
    overflow = 0
    comms = 0
    ceil = math.ceil

    for position in analysis.topo_indices:
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
            rows = fu_rows[cluster][code]
            capacity = fu_counts[cluster][code]
            limit = cycle + ii * window
            placed = False
            while cycle <= limit:
                if rows[cycle % ii] < capacity:
                    rows[cycle % ii] += 1
                    placed = True
                    break
                cycle += 1
            if not placed:
                overflow += 1
        issue[position] = cycle * ct
        finish[position] = (cycle + op_latency[position]) * ct

    it_length = max(finish, default=0.0)

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

    units = [0.0] * machine.n_clusters
    for position in range(n):
        units[assign[position]] += op_energy[position]

    return PseudoSchedule(
        it_length=it_length,
        overflow=overflow,
        comms=comms,
        recurrence_violation=violation,
        cluster_units=tuple(units),
    )


def reference_partition_cost(ctx, partition):
    """Lexicographic cost of a partition: (infeasibility, estimated ED^2).

    The first component must be zero for a schedulable partition: it sums
    capacity overload, pseudo-schedule overflow and recurrence violations.
    The second applies the section 3.1 energy model (with the context's
    weights and delta/sigma factors) to the pseudo-schedule and multiplies
    by the estimated squared execution time.
    """
    infeasibility = 0.0
    demand = partition.demand_matrix()
    fu_counts = ctx.cluster_fu_counts
    cluster_iis = ctx.cluster_iis
    for cluster in range(ctx.n_clusters):
        ii = cluster_iis[cluster]
        row = demand[cluster]
        counts = fu_counts[cluster]
        for code, needed in enumerate(row):
            capacity = ii * counts[code]
            if needed > capacity:
                infeasibility += needed - capacity

    ps = reference_pseudo_schedule(ctx, partition)
    infeasibility += ps.overflow
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


def reference_total_overload(ctx, partition):
    total = 0
    demand = partition.demand_matrix()
    for cluster in range(ctx.n_clusters):
        ii = ctx.cluster_iis[cluster]
        counts = ctx.cluster_fu_counts[cluster]
        for code, needed in enumerate(demand[cluster]):
            excess = needed - ii * counts[code]
            if excess > 0:
                total += excess
    return total


def reference_macro_cluster(partition, macro):
    """Cluster currently hosting the macro (its first op's cluster)."""
    return partition.cluster_of(macro.ops[0])


def reference_balance(ctx, partition, macros):
    """Greedy overload reduction by whole-macro moves."""
    usable = ctx.usable_clusters()
    current = partition
    overload = reference_total_overload(ctx, current)
    while overload > 0:
        best = None  # (overload, macro, dst)
        for macro in macros:
            source = reference_macro_cluster(current, macro)
            for target in usable:
                if target == source:
                    continue
                candidate = current.moved(macro.ops, target)
                candidate_overload = reference_total_overload(ctx, candidate)
                if candidate_overload < overload and (
                    best is None or candidate_overload < best[0]
                ):
                    best = (candidate_overload, macro, target)
        if best is None:
            break
        overload = best[0]
        current = current.moved(best[1].ops, best[2])
    return current


def reference_ed2_refine(ctx, partition, macros):
    """Best-improvement ED^2 moves until a pass changes nothing."""
    usable = ctx.usable_clusters()
    current = partition
    current_cost = reference_partition_cost(ctx, current)
    for _ in range(ctx.options.refinement_passes):
        moved = False
        for macro in macros:
            source = reference_macro_cluster(current, macro)
            best_candidate = None
            best_cost = current_cost
            for target in usable:
                if target == source:
                    continue
                candidate = current.moved(macro.ops, target)
                cost = reference_partition_cost(ctx, candidate)
                if cost < best_cost:
                    best_cost = cost
                    best_candidate = candidate
            if best_candidate is not None:
                current = best_candidate
                current_cost = best_cost
                moved = True
        if not moved:
            break
    return current


def reference_refine(ctx, partition, coarsening):
    """Walk the hierarchy coarsest -> finest applying both heuristics."""
    current = partition
    for level in reversed(coarsening.levels):
        current = reference_balance(ctx, current, level)
        if ctx.options.ed2_refinement:
            current = reference_ed2_refine(ctx, current, level)
    return current


# ----------------------------------------------------------------------
# contexts: the paper machine, optionally with a gated cluster, a gated
# interconnect or without synchronisation penalties
# ----------------------------------------------------------------------
#: Non-zero leakage rates, so the static term of the ED^2 estimate counts.
WEIGHTS = PartitionEnergyWeights(
    e_ins_unit=1.0, e_comm=0.8, static_rate_per_cluster=0.05, static_rate_icn=0.02
)
VARIANTS = ("plain", "gated_cluster", "gated_icn", "no_sync")


def _gated(domain):
    return DomainAssignment(domain, Fraction(0), 0)


def variant_context(ddg, point, variant, skip=0):
    """A context at the ``skip``-th synchronisable IT from the MIT."""
    machine = paper_machine(n_buses=1 + skip % 2)
    palette = FrequencyPalette.any_frequency()
    mit = minimum_initiation_time(ddg, machine, point.speeds)
    assignments = None
    for it in iter_it_candidates(point, palette, start=mit):
        assignments = select_assignments(it, point, palette)
        if assignments is not None:
            if skip == 0:
                break
            skip -= 1
    assignments = dict(assignments)
    if variant == "gated_cluster":
        assignments[cluster_domain(3)] = _gated(cluster_domain(3))
    elif variant == "gated_icn":
        assignments[ICN_DOMAIN] = _gated(ICN_DOMAIN)
    options = SchedulerOptions(sync_penalties=variant != "no_sync")
    return SchedulingContext(
        ddg, machine, point, assignments, it, options, 100.0, WEIGHTS
    )


def refine_inputs(ctx):
    """(initial partition, coarsening) as ``build_partition`` makes them."""
    pins = preplace_recurrences(ctx)
    coarsening = coarsen(ctx, pins)
    return initial_partition(ctx, coarsening), coarsening


_REFERENCE = TechnologyModel().reference_setting
REFERENCE_POINT = OperatingPoint.homogeneous(
    4, _REFERENCE.cycle_time, _REFERENCE.vdd, _REFERENCE.vth
)
#: One fast cluster (0.9 ns) and three slow ones (1.35 ns).
HET_POINT = OperatingPoint(
    clusters=(
        DomainSetting(Fraction(9, 10), 1.1, 0.28),
        *[DomainSetting(Fraction(27, 20), 0.8, 0.30)] * 3,
    ),
    icn=DomainSetting(Fraction(9, 10), 1.0, 0.30),
    cache=DomainSetting(Fraction(9, 10), 1.2, 0.35),
)
POINTS = {"reference": REFERENCE_POINT, "heterogeneous": HET_POINT}


class TestED2RefinementOracle:
    """``refine()`` picks exactly the full-rescoring refinement's moves."""

    @pytest.mark.parametrize("point_name", sorted(POINTS))
    @pytest.mark.parametrize("buses", (1, 2))
    @pytest.mark.parametrize("profile_name", SPEC2000_PROFILES)
    def test_spec_corpora(self, profile_name, buses, point_name, monkeypatch):
        point = POINTS[point_name]
        checked = []

        def checked_refine(ctx, partition, coarsening):
            refined = refine(ctx, partition, coarsening)
            expected = reference_refine(ctx, partition, coarsening)
            assert refined.as_dict() == expected.as_dict()
            checked.append(ctx.it)
            return refined

        monkeypatch.setattr(
            "repro.scheduler.partition.driver.refine", checked_refine
        )
        scheduler = HeterogeneousModuloScheduler(paper_machine(n_buses=buses))
        corpus = build_corpus(spec_profile(profile_name), scale=0.02)
        for loop in corpus:
            try:
                scheduler.schedule(loop, point, WEIGHTS)
            except InfeasibleITError:
                pass
        assert checked

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(VARIANTS),
        skip=st.integers(0, 2),
        het=st.booleans(),
    )
    def test_random_loops(self, seed, variant, skip, het):
        ddg = random_ddg(random.Random(seed), max_ops=16)
        point = HET_POINT if het else REFERENCE_POINT
        ctx = variant_context(ddg, point, variant, skip)
        try:
            partition, coarsening = refine_inputs(ctx)
        except PartitionError:
            return
        refined = refine(ctx, partition, coarsening)
        expected = reference_refine(ctx, partition, coarsening)
        assert refined.as_dict() == expected.as_dict()


class TestIncrementalScore:
    """Every incremental score ``==`` the full cost of the moved partition."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(VARIANTS),
        skip=st.integers(0, 2),
        het=st.booleans(),
    )
    def test_matches_partition_cost(self, seed, variant, skip, het):
        rng = random.Random(seed)
        ddg = random_ddg(rng, max_ops=16)
        ctx = variant_context(ddg, HET_POINT if het else REFERENCE_POINT, variant, skip)
        ops = ddg.operations
        partition = Partition(ddg, 4, {op: rng.randrange(4) for op in ops})
        scorer = _MoveScorer(ctx, partition)
        index = ctx.analysis.op_index
        rank = ctx.analysis.topo_rank
        for _ in range(12):
            moving = rng.sample(ops, k=rng.randint(1, min(4, len(ops))))
            target = rng.randrange(4)
            positions = [index[op] for op in moving]
            first = min(rank[position] for position in positions)
            moved = partition.moved(moving, target)

            overload = scorer.overload_if_moved(scorer.outflow(positions), target)
            assert overload == capacity_overload(ctx, moved.demand_matrix())
            # Some moves are accepted unscored, as a memo hit would be:
            # the running prefix must still notice it went stale.
            unscored = rng.random() < 0.2
            if not unscored:
                assert pseudo_schedule(ctx, moved) == reference_pseudo_schedule(
                    ctx, moved
                )
                expected = partition_cost(ctx, moved)
                assert expected == reference_partition_cost(ctx, moved)
                cost = scorer.cost_if_moved(positions, first, target, overload)
                assert cost == expected

            if unscored or rng.random() < 0.3:
                scorer.move(positions, target, first)
                partition = moved
                assert scorer.assign == partition.vector()
                assert scorer.overload == capacity_overload(
                    ctx, partition.demand_matrix()
                )


class TestRefinementCounters:
    def test_outcomes_sum_to_candidates_considered(self, monkeypatch):
        considered = []
        module = sys.modules[__name__]
        full_cost = module.reference_partition_cost

        def counted_cost(ctx, partition):
            considered.append(1)
            return full_cost(ctx, partition)

        def reference_counted(ctx, partition, macros):
            before = len(considered)
            refined = reference_ed2_refine(ctx, partition, macros)
            del considered[before]  # the starting partition's own cost
            return refined

        def both(ctx, partition, coarsening):
            refined = refine(ctx, partition, coarsening)
            current = partition
            for level in reversed(coarsening.levels):
                current = reference_balance(ctx, current, level)
                current = reference_counted(ctx, current, level)
            assert current.as_dict() == refined.as_dict()
            return refined

        monkeypatch.setattr(module, "reference_partition_cost", counted_cost)
        monkeypatch.setattr("repro.scheduler.partition.driver.refine", both)
        outcomes = ("scored", "memo_hit", "capacity_pruned")
        before = {o: _ED2_CANDIDATES.value(outcome=o) for o in outcomes}
        was_tracing = tracing_enabled()
        enable_tracing()
        try:
            scheduler = HeterogeneousModuloScheduler(paper_machine())
            with span("evaluate") as root:
                for loop in build_corpus(spec_profile("178.galgel"), scale=0.02):
                    scheduler.schedule(loop, HET_POINT, WEIGHTS)
        finally:
            if not was_tracing:
                disable_tracing()
        counted = {o: _ED2_CANDIDATES.value(outcome=o) - before[o] for o in outcomes}
        assert all(counted[o] > 0 for o in outcomes), counted
        assert sum(counted.values()) == len(considered)

        loops = [s for s in root.walk() if s.name == "schedule_loop"]
        spans = {
            o: sum(s.counters.get(f"ed2_{o}", 0) for s in loops) for o in outcomes
        }
        assert spans == counted


class TestCostMemoLifetime:
    def test_memo_dies_with_its_context(self):
        ddg = random_ddg(random.Random(21), max_ops=14)
        ctx = variant_context(ddg, HET_POINT, "plain")
        partition = build_partition(ctx)
        assert ctx.cost_memo
        witness = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert witness() is None
        assert len(partition.as_dict()) == len(ddg)

    def test_no_context_outlives_a_schedule(self):
        loop = next(iter(build_corpus(spec_profile("171.swim"), scale=0.02)))

        def live_contexts():
            gc.collect()
            return sum(isinstance(o, SchedulingContext) for o in gc.get_objects())

        before = live_contexts()
        schedule = HeterogeneousModuloScheduler(paper_machine()).schedule(
            loop, HET_POINT, WEIGHTS
        )
        assert live_contexts() == before
        assert schedule.it > 0


# ----------------------------------------------------------------------
# IT search: the parent's four copies of the period-multiple merge and
# the capacity check, verbatim, as the oracle for ``repro.scheduler.mii``.
# ----------------------------------------------------------------------
class _OutOfBudget(Exception):
    """The parent copies used up their heap-push budget."""


class _BudgetedHeapq:
    """The ``heapq`` the parent copies below call, with a push budget.

    The parent's merges re-armed every dividing period once per heap copy
    of a shared multiple, so their heaps double at each multiple two
    periods share: on periods in small ratios (1 and 1/2 ns) a long scan
    never ends.  A comparison stops where the budget runs out; every
    example is also checked in full against brute force.
    """

    heappop = staticmethod(_heapq.heappop)

    def __init__(self) -> None:
        self.left = 0

    def heappush(self, heap, item) -> None:
        self.left -= 1
        if self.left < 0:
            raise _OutOfBudget
        _heapq.heappush(heap, item)


heapq = _BudgetedHeapq()

#: Heap pushes one call of a parent copy may make.
PARENT_BUDGET = 5_000


def parent_prefix(stream, count):
    """Up to ``count`` values of a parent stream, as far as its budget goes."""
    heapq.left = PARENT_BUDGET
    values = []
    try:
        for value in stream:
            values.append(value)
            if len(values) == count:
                break
    except _OutOfBudget:
        pass
    return values


def parent_value(call, *args):
    """A parent copy's result, or None if it ran out of budget."""
    heapq.left = PARENT_BUDGET
    try:
        return call(*args)
    except _OutOfBudget:
        return None


def reference_ddg_fu_demand(ddg: DDG) -> Dict[FUType, int]:
    """Per-FU-type operation counts of a loop body (copies excluded)."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for op in ddg.operations:
        fu = fu_for(op.opclass)
        if fu is not None:
            demand[fu] += 1
    return demand


def _reference_cluster_iis(it: Fraction, speeds: MachineSpeeds) -> List[int]:
    return [floor_div(it, ct) for ct in speeds.cluster_cycle_times]


def _reference_capacity_satisfied(
    it: Fraction,
    machine: MachineDescription,
    speeds: MachineSpeeds,
    demand: Dict[FUType, int],
) -> bool:
    iis = _reference_cluster_iis(it, speeds)
    for fu, needed in demand.items():
        if needed == 0:
            continue
        slots = sum(ii * machine.cluster(i).fu_count(fu) for i, ii in enumerate(iis))
        if slots < needed:
            return False
    return True


def reference_res_mit(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """Resource-constrained minimum initiation time (ns).

    The capacity of each FU type jumps only when some cluster gains a
    cycle, i.e. at multiples of that cluster's period; the smallest
    feasible IT is therefore a multiple of some cluster period and the
    search walks the merged multiples in ascending order.
    """
    demand = reference_ddg_fu_demand(ddg)
    total_demand = sum(demand.values())
    if total_demand == 0:
        return speeds.fastest_cluster_cycle_time

    # Lower bound: even with every cluster contributing slots at its own
    # rate, IT must satisfy sum_c (IT / Tcyc_c) * units >= demand per type.
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

    periods = sorted(set(speeds.cluster_cycle_times))
    # Candidates: multiples of each cluster period, merged, from `lower`.
    candidates = sorted(
        {
            k * period
            for period in periods
            for k in range(
                max(1, ceil_div(lower, period)),
                ceil_div(lower, period) + total_demand + 2,
            )
        }
    )
    for candidate in candidates:
        if _reference_capacity_satisfied(candidate, machine, speeds, demand):
            return candidate
    raise InfeasibleITError(  # pragma: no cover - candidates always suffice
        f"no feasible resMIT found for loop {ddg.name!r}"
    )


def reference_minimum_initiation_time(
    ddg: DDG, machine: MachineDescription, speeds: MachineSpeeds
) -> Fraction:
    """``MIT = max(recMIT, resMIT)`` (section 2.2)."""
    return max(
        rec_mit(ddg, machine.isa, speeds), reference_res_mit(ddg, machine, speeds)
    )


def reference_fu_demand(class_counts) -> Dict[FUType, int]:
    """Per-FU-type instruction counts of a loop body."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for opclass, count in class_counts.items():
        fu = fu_for(opclass)
        if fu is not None:
            demand[fu] += count
    return demand


def reference_candidate_its(
    speeds: MachineSpeeds, start: Fraction
) -> Iterator[Fraction]:
    """Ascending ITs at which some capacity term can jump.

    Capacities change only when ``floor(IT / Tcyc_d)`` increments for some
    domain, i.e. at multiples of a domain cycle time.  The stream starts
    with ``start`` itself, then merges the multiples of every relevant
    period strictly above ``start``.
    """
    yield start
    periods = list(speeds.cluster_cycle_times) + [speeds.icn_cycle_time]
    heap: List[Fraction] = []
    for period in set(periods):
        k = floor_div(start, period) + 1
        heapq.heappush(heap, k * period)
    previous: Optional[Fraction] = None
    while heap:
        value = heapq.heappop(heap)
        # Re-arm the period(s) whose multiple this was.
        for period in set(periods):
            if (value / period).denominator == 1:
                heapq.heappush(heap, value + period)
        if previous is None or value > previous:
            previous = value
            yield value


class ReferenceTimeModel:
    """Section 3.2 estimator bound to one machine description."""

    #: Safety bound on the candidate-IT scan per loop.
    MAX_CANDIDATES = 100_000

    def __init__(self, machine: MachineDescription):
        self._machine = machine

    # ------------------------------------------------------------------
    def rec_mit(self, profile: LoopProfile, speeds: MachineSpeeds) -> Fraction:
        """recMIT: recMII cycles of the fastest cluster (section 2.2)."""
        return profile.rec_mii * speeds.fastest_cluster_cycle_time

    def _capacity_ok(
        self,
        it: Fraction,
        speeds: MachineSpeeds,
        demand: Dict[FUType, int],
        comms: int,
        lifetimes: int,
    ) -> bool:
        machine = self._machine
        iis = [floor_div(it, ct) for ct in speeds.cluster_cycle_times]
        for fu, needed in demand.items():
            if needed == 0:
                continue
            slots = sum(
                ii * machine.cluster(i).fu_count(fu) for i, ii in enumerate(iis)
            )
            if slots < needed:
                return False
        if comms > 0:
            ii_icn = floor_div(it, speeds.icn_cycle_time)
            if machine.interconnect.n_buses * ii_icn < comms:
                return False
        if lifetimes > 0:
            reg_slots = sum(
                ii * machine.cluster(i).n_regs for i, ii in enumerate(iis)
            )
            if reg_slots < lifetimes:
                return False
        return True

    def minimum_initiation_time(
        self, profile: LoopProfile, speeds: MachineSpeeds
    ) -> Fraction:
        """Smallest IT satisfying the four section 3.2 constraints."""
        if speeds.n_clusters != self._machine.n_clusters:
            raise ValueError("speed assignment and machine disagree on clusters")
        demand = reference_fu_demand(profile.class_counts)
        start = self.rec_mit(profile, speeds)
        if start <= 0:
            # No recurrences: the scan starts at the smallest IT giving the
            # fastest cluster a single slot.
            start = speeds.fastest_cluster_cycle_time
        for steps, candidate in enumerate(reference_candidate_its(speeds, start)):
            if steps > self.MAX_CANDIDATES:  # pragma: no cover - safety net
                break
            if self._capacity_ok(
                candidate,
                speeds,
                demand,
                profile.comms_per_iteration,
                profile.lifetime_cycles_per_iteration,
            ):
                return candidate
        raise InfeasibleITError(
            f"no feasible IT found for loop {profile.name!r} within "
            f"{self.MAX_CANDIDATES} candidates"
        )


def reference_iter_it_candidates(
    point: OperatingPoint,
    palette: FrequencyPalette,
    start: Time,
) -> Iterator[Fraction]:
    """Ascending IT candidates from ``start``.

    With an unconstrained palette the per-domain IIs jump at multiples of
    the domains' fastest periods, so those multiples (plus ``start``
    itself) are the only ITs worth trying.  With a finite palette an IT
    synchronises a domain only when it is a multiple of a supported
    frequency's period, so the candidates are the merged multiples of
    ``1/f`` over the palette.
    """
    start = as_fraction(start)
    if palette.is_any:
        # IIs jump at multiples of the domains' fastest periods; `start`
        # itself (typically the MIT) is always worth trying first.
        periods = sorted(
            {s.cycle_time for s in point.clusters}
            | {point.icn.cycle_time, point.cache.cycle_time}
        )
        yield start
        previous: Optional[Fraction] = start
        heap: List[Fraction] = []
        for period in periods:
            heapq.heappush(heap, (floor_div(start, period) + 1) * period)
    else:
        # A domain synchronises only when IT is a multiple of a supported
        # frequency's period, so those multiples are the candidates.
        if palette.is_per_domain:
            size = palette.per_domain_size
            fmaxes = {s.fmax for s in point.clusters}
            fmaxes.add(point.icn.fmax)
            fmaxes.add(point.cache.fmax)
            periods = sorted(
                {
                    Fraction(size, k) / fmax
                    for fmax in fmaxes
                    for k in range(1, size + 1)
                }
            )
        else:
            periods = sorted({Fraction(1) / f for f in palette.frequencies})
        previous = None
        heap = []
        for period in periods:
            k = max(ceil_div(start, period), 1)
            heapq.heappush(heap, k * period)
    while heap:
        value = heapq.heappop(heap)
        for period in periods:
            # Divisibility check without allocating the quotient Fraction.
            if (value.numerator * period.denominator) % (
                value.denominator * period.numerator
            ) == 0:
                heapq.heappush(heap, value + period)
        if previous is None or value > previous:
            previous = value
            yield value


#: Candidates compared per stream.
PREFIX = 200


def brute_force_multiples(periods, start, count):
    """The first ``count`` distinct ``k * p >= start`` (``k >= 1``), by enumeration."""
    shortest = min(periods)
    # The multiples of the shortest period alone already give `count` values.
    bound = (max(ceil_div(start, shortest), 1) + count) * shortest
    values = {
        k * p
        for p in periods
        for k in range(max(ceil_div(start, p), 1), floor_div(bound, p) + 1)
    }
    return sorted(values)[:count]


def expected_it_candidates(point, palette, start, count):
    """What ``iter_it_candidates`` must yield, from the palette's periods."""
    if palette.is_any:
        periods = {s.cycle_time for s in point.clusters}
        periods |= {point.icn.cycle_time, point.cache.cycle_time}
        above = [v for v in brute_force_multiples(periods, start, count) if v > start]
        return ([start] + above)[:count]
    if palette.is_per_domain:
        size = palette.per_domain_size
        fmaxes = {s.fmax for s in point.clusters} | {point.icn.fmax, point.cache.fmax}
        periods = {Fraction(size, k) / f for f in fmaxes for k in range(1, size + 1)}
    else:
        periods = {Fraction(1) / f for f in palette.frequencies}
    return brute_force_multiples(periods, start, count)


def brute_force_time_model_it(machine, profile, speeds):
    """The smallest section 3.2 IT, scanning every multiple by enumeration."""
    model = ReferenceTimeModel(machine)
    start = model.rec_mit(profile, speeds)
    if start <= 0:
        start = speeds.fastest_cluster_cycle_time
    periods = [*speeds.cluster_cycle_times, speeds.icn_cycle_time]
    candidates = [start] + brute_force_multiples(periods, start, 4000)
    demand = reference_fu_demand(profile.class_counts)
    return next(
        it
        for it in candidates
        if model._capacity_ok(
            it,
            speeds,
            demand,
            profile.comms_per_iteration,
            profile.lifetime_cycles_per_iteration,
        )
    )


#: Periods (ns) as exact rationals with the denominators clock settings
#: use: 0.05 ns steps, quarters and thirds.
periods_st = st.builds(Fraction, st.integers(10, 60), st.sampled_from((20, 4, 3, 12)))
palettes_st = st.one_of(
    st.just(FrequencyPalette.any_frequency()),
    st.integers(1, 8).map(FrequencyPalette.per_domain_uniform),
    st.lists(
        st.builds(Fraction, st.integers(1, 20), st.sampled_from((10, 9, 4))),
        min_size=1,
        max_size=4,
        unique=True,
    ).map(lambda fs: FrequencyPalette(tuple(sorted(fs)))),
)


def _setting(cycle_time):
    return DomainSetting(cycle_time, 1.0, 0.3)


class TestITSearchOracle:
    """The shared IT search returns exactly what the parent's copies did."""

    @settings(max_examples=80, deadline=None)
    @given(
        fast=periods_st,
        slow=periods_st,
        icn=periods_st,
        cache=periods_st,
        palette=palettes_st,
        start=st.builds(Fraction, st.integers(1, 400), st.sampled_from((1, 20, 3))),
    )
    def test_candidate_streams(self, fast, slow, icn, cache, palette, start):
        point = OperatingPoint(
            clusters=(_setting(fast), *[_setting(slow)] * 3),
            icn=_setting(icn),
            cache=_setting(cache),
        )
        new = list(itertools.islice(iter_it_candidates(point, palette, start), PREFIX))
        assert new == expected_it_candidates(point, palette, start, PREFIX)
        parent = parent_prefix(reference_iter_it_candidates(point, palette, start), PREFIX)
        assert new[: len(parent)] == parent
        # The time model's scan: `start`, then the cluster and
        # interconnect multiples strictly above it.
        speeds = point.speeds
        periods = [*speeds.cluster_cycle_times, speeds.icn_cycle_time]
        above = (v for v in period_multiples(periods, start) if v > start)
        scan = [start, *itertools.islice(above, PREFIX - 1)]
        parent = parent_prefix(reference_candidate_its(speeds, start), PREFIX)
        assert scan[: len(parent)] == parent

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clusters=st.lists(periods_st, min_size=4, max_size=4),
        icn=periods_st,
        buses=st.integers(1, 2),
        counts=st.dictionaries(
            st.sampled_from(COMPUTE_CLASSES), st.integers(0, 40), max_size=5
        ),
        rec=st.builds(Fraction, st.integers(0, 40), st.integers(1, 3)),
        comms=st.integers(0, 30),
        lifetimes=st.integers(0, 1500),
    )
    def test_mit_and_time_model(
        self, seed, clusters, icn, buses, counts, rec, comms, lifetimes
    ):
        machine = paper_machine(n_buses=buses)
        speeds = MachineSpeeds(tuple(clusters), icn, icn)
        ddg = random_ddg(random.Random(seed), max_ops=16)
        assert res_mit(ddg, machine, speeds) == reference_res_mit(ddg, machine, speeds)
        assert minimum_initiation_time(
            ddg, machine, speeds
        ) == reference_minimum_initiation_time(ddg, machine, speeds)
        profile = LoopProfile(
            name="random",
            rec_mii=rec,
            res_mii=1,
            ii_homogeneous=1,
            cycles_per_iteration=10,
            class_counts=counts,
            energy_units_per_iteration=1.0,
            comms_per_iteration=comms,
            mem_accesses_per_iteration=0,
            lifetime_cycles_per_iteration=lifetimes,
            trip_count=100.0,
            weight=1.0,
        )
        it = TimeModel(machine).minimum_initiation_time(profile, speeds)
        assert it == brute_force_time_model_it(machine, profile, speeds)
        parent = parent_value(
            ReferenceTimeModel(machine).minimum_initiation_time, profile, speeds
        )
        assert parent is None or it == parent

    @pytest.mark.parametrize("profile_name", SPEC2000_PROFILES)
    def test_spec_corpora(self, profile_name, monkeypatch):
        """Every MIT, candidate stream and time-model IT of a paper run.

        The profile passes schedule every loop on the reference point,
        the selector's time model estimates every loop on every
        configuration it considers, and the schedule pass schedules
        every loop on the selected heterogeneous point.  The parent's
        MIT and time model must finish every call within their budget.
        """
        checked = {"mit": 0, "stream": 0, "time_model": 0}

        def checked_mit(ddg, machine, speeds):
            mit = minimum_initiation_time(ddg, machine, speeds)
            assert mit == reference_minimum_initiation_time(ddg, machine, speeds)
            checked["mit"] += 1
            return mit

        def checked_stream(point, palette, start):
            new = list(itertools.islice(iter_it_candidates(point, palette, start), PREFIX))
            assert new == expected_it_candidates(point, palette, start, PREFIX)
            parent = parent_prefix(reference_iter_it_candidates(point, palette, start), PREFIX)
            assert new[: len(parent)] == parent
            checked["stream"] += 1
            return iter_it_candidates(point, palette, start)

        new_loop_it = TimeModel.loop_it

        def checked_time_model(model, context, row):
            num, den = new_loop_it(model, context, row)
            reference = ReferenceTimeModel(model._machine)
            assert Fraction(num, den) == parent_value(
                reference.minimum_initiation_time, row.profile, context.speeds
            )
            checked["time_model"] += 1
            return num, den

        monkeypatch.setattr(
            "repro.scheduler.heterogeneous.minimum_initiation_time", checked_mit
        )
        monkeypatch.setattr(
            "repro.scheduler.heterogeneous.iter_it_candidates", checked_stream
        )
        monkeypatch.setattr(TimeModel, "loop_it", checked_time_model)
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        try:
            corpus = build_corpus(spec_profile(profile_name), scale=0.02)
            Experiment.paper(ExperimentOptions()).run(corpus)
        finally:
            clear_loop_cache(reset_stats=True)
        assert all(checked.values()), checked


# ----------------------------------------------------------------------
# Selector: one speeds context per structure, one set of profile totals
# and one voltage table per call.  The parent's time model, selector and
# homogeneous optimum, verbatim, are the oracle; every estimate and every
# SelectionResult must ``==`` theirs.
# ----------------------------------------------------------------------
class ParentTimeModel:
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


class ParentSelector(ConfigurationSelector):
    """The parent's section 3.3 walk: everything re-derived per structure."""

    def __init__(self, machine, technology, spec=None, distribution="critical"):
        super().__init__(machine, technology, spec, distribution)
        self._time_model = ParentTimeModel(machine)

    # ------------------------------------------------------------------
    def _best_component_voltage(
        self,
        cycle_time: Fraction,
        vdd_grid: Sequence[float],
        dynamic_at_reference: float,
        static_rate: float,
        exec_time_ns: float,
        units: CalibratedUnits,
    ) -> Optional[Tuple[DomainSetting, float]]:
        """Cheapest feasible setting for one component, and its energy."""
        best: Optional[Tuple[DomainSetting, float]] = None
        for vdd in vdd_grid:
            setting = self._technology.domain_setting(cycle_time, vdd)
            if setting is None:
                continue
            energy = (
                dynamic_scale(setting, units.reference) * dynamic_at_reference
                + static_scale(
                    setting, units.reference, self._technology.subthreshold_slope
                )
                * static_rate
                * exec_time_ns
            )
            if best is None or energy < best[1]:
                best = (setting, energy)
        return best

    def _evaluate_structure(
        self,
        profile: ProgramProfile,
        units: CalibratedUnits,
        n_fast: int,
        fast_factor: Fraction,
        slow_ratio: Fraction,
    ) -> Optional[SelectionResult]:
        machine = self._machine
        n_clusters = machine.n_clusters
        if n_fast > n_clusters:
            return None
        reference_ct = units.reference.cycle_time
        fast_ct = fast_factor * reference_ct
        slow_ct = slow_ratio * fast_ct
        n_slow = n_clusters - n_fast

        speeds = MachineSpeeds(
            cluster_cycle_times=tuple(
                fast_ct if i < n_fast else slow_ct for i in range(n_clusters)
            ),
            icn_cycle_time=fast_ct,  # ICN tracks the fastest cluster (section 5)
            cache_cycle_time=fast_ct,  # so does the cache
        )
        exec_time = self._time_model.program_time(profile, speeds)

        # Instruction distribution across fast/slow cluster groups.
        total_units = profile.total_energy_units
        if n_slow == 0 or slow_ratio == 1:
            per_cluster_units = total_units / n_clusters
            fast_units, slow_units = per_cluster_units, per_cluster_units
        else:
            if self._distribution == "critical":
                fast_share = effective_fast_share(profile)
            else:
                fast_share = 0.5
            fast_units = fast_share * total_units / n_fast
            slow_units = (1.0 - fast_share) * total_units / n_slow

        per_cluster_static = units.static_rate_per_cluster

        fast_choice = self._best_component_voltage(
            fast_ct,
            self._spec.cluster_vdd_grid,
            units.e_ins_unit * fast_units,
            per_cluster_static,
            exec_time,
            units,
        )
        if fast_choice is None:
            return None
        energy = n_fast * fast_choice[1]

        if n_slow > 0:
            slow_choice = self._best_component_voltage(
                slow_ct,
                self._spec.cluster_vdd_grid,
                units.e_ins_unit * slow_units,
                per_cluster_static,
                exec_time,
                units,
            )
            if slow_choice is None:
                return None
            energy += n_slow * slow_choice[1]
        else:
            slow_choice = fast_choice

        # A heterogeneous partition communicates more than the homogeneous
        # schedule: splitting critical recurrences from the rest turns the
        # boundary edges into bus traffic.
        if n_slow > 0 and slow_ratio != 1:
            comm_estimate = profile.total_comms_heterogeneous
        else:
            comm_estimate = profile.total_comms
        icn_choice = self._best_component_voltage(
            fast_ct,
            self._spec.icn_vdd_grid,
            units.e_comm * comm_estimate,
            units.static_rate_icn,
            exec_time,
            units,
        )
        cache_choice = self._best_component_voltage(
            fast_ct,
            self._spec.cache_vdd_grid,
            units.e_access * profile.total_mem_accesses,
            units.static_rate_cache,
            exec_time,
            units,
        )
        if icn_choice is None or cache_choice is None:
            return None
        energy += icn_choice[1] + cache_choice[1]

        point = OperatingPoint(
            clusters=tuple(
                fast_choice[0] if i < n_fast else slow_choice[0]
                for i in range(n_clusters)
            ),
            icn=icn_choice[0],
            cache=cache_choice[0],
        )
        return SelectionResult(
            point=point,
            estimated_time_ns=exec_time,
            estimated_energy=energy,
            estimated_ed2=ed2(energy, exec_time),
            n_fast=n_fast,
            fast_factor=fast_factor,
            slow_ratio=slow_ratio,
        )

    # ------------------------------------------------------------------
    def select(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> SelectionResult:
        """The operating point with the lowest *estimated* ED^2."""
        best: Optional[SelectionResult] = None
        for n_fast, fast_factor, slow_ratio in self._spec.structures():
            candidate = self._evaluate_structure(
                profile, units, n_fast, fast_factor, slow_ratio
            )
            if candidate is None:
                continue
            if best is None or candidate.estimated_ed2 < best.estimated_ed2:
                best = candidate
        if best is None:
            raise ConfigurationError(
                "no feasible heterogeneous configuration in the design space"
            )
        return best

    def enumerate(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> Tuple[SelectionResult, ...]:
        """Every feasible structure with its estimates (for exploration)."""
        results = []
        for n_fast, fast_factor, slow_ratio in self._spec.structures():
            candidate = self._evaluate_structure(
                profile, units, n_fast, fast_factor, slow_ratio
            )
            if candidate is not None:
                results.append(candidate)
        return tuple(sorted(results, key=lambda r: r.estimated_ed2))


class ParentEnergyModel(EnergyModel):
    """The parent's ``estimate``, with the scaling formula inline."""

    def estimate(
        self,
        point: OperatingPoint,
        counts: EventCounts,
        exec_time_ns: float,
    ) -> EnergyEstimate:
        """Energy with known per-cluster event counts (measurement path)."""
        if len(counts.cluster_energy_units) != point.n_clusters:
            raise CalibrationError(
                "event counts and operating point disagree on cluster count"
            )
        if exec_time_ns < 0:
            raise ValueError("execution time must be non-negative")
        units = self._units
        cluster_deltas, icn_delta, cache_delta = self._deltas(point)
        cluster_sigmas, icn_sigma, cache_sigma = self._sigmas(point)

        cluster_dynamic = units.e_ins_unit * sum(
            delta * events
            for delta, events in zip(cluster_deltas, counts.cluster_energy_units)
        )
        icn_dynamic = icn_delta * units.e_comm * counts.n_comms
        cache_dynamic = cache_delta * units.e_access * counts.n_mem_accesses

        per_cluster_rate = units.static_rate_per_cluster
        cluster_static = exec_time_ns * per_cluster_rate * sum(cluster_sigmas)
        icn_static = exec_time_ns * units.static_rate_icn * icn_sigma
        cache_static = exec_time_ns * units.static_rate_cache * cache_sigma

        return EnergyEstimate(
            cluster_dynamic=cluster_dynamic,
            icn_dynamic=icn_dynamic,
            cache_dynamic=cache_dynamic,
            cluster_static=cluster_static,
            icn_static=icn_static,
            cache_static=cache_static,
        )


def parent_optimum_homogeneous(
    profile: ProgramProfile,
    machine: MachineDescription,
    technology: TechnologyModel,
    units: CalibratedUnits,
    spec: Optional[DesignSpaceSpec] = None,
) -> SelectionResult:
    """The homogeneous operating point with the lowest estimated ED^2.

    Explores all cycle-time factors reachable by the heterogeneous design
    space and the voltages legal for *every* component simultaneously
    (``spec.homogeneous_vdd_grid``).
    """
    spec = spec if spec is not None else DesignSpaceSpec.paper()
    model = ParentEnergyModel(units, technology)
    reference_ct = units.reference.cycle_time
    total_cycles = profile.total_cycles

    best: Optional[SelectionResult] = None
    for factor in spec.homogeneous_factors():
        cycle_time = factor * reference_ct
        exec_time = total_cycles * float(cycle_time)
        for vdd in spec.homogeneous_vdd_grid:
            setting = technology.domain_setting(cycle_time, vdd)
            if setting is None:
                continue
            point = OperatingPoint.homogeneous(
                machine.n_clusters, cycle_time, setting.vdd, setting.vth
            )
            estimate = model.estimate_with_distribution(
                point,
                total_energy_units=profile.total_energy_units,
                n_comms=profile.total_comms,
                n_mem_accesses=profile.total_mem_accesses,
                exec_time_ns=exec_time,
            )
            candidate = SelectionResult(
                point=point,
                estimated_time_ns=exec_time,
                estimated_energy=estimate.total,
                estimated_ed2=ed2(estimate.total, exec_time),
                n_fast=machine.n_clusters,
                fast_factor=factor,
                slow_ratio=Fraction(1),
            )
            if best is None or candidate.estimated_ed2 < best.estimated_ed2:
                best = candidate
    if best is None:
        raise ConfigurationError(
            "no feasible homogeneous configuration in the design space"
        )
    return best


def selection_outcome(call, *args):
    """``("ok", value)`` or ``("raised", message)`` of one selector call."""
    try:
        return ("ok", call(*args))
    except ConfigurationError as error:
        return ("raised", str(error))


#: Cycle times (ns) off the decimal grid: a 3/4 GHz and a 3 GHz clock.
ODD_PERIODS = (Fraction(4, 3), Fraction(1, 3))

loop_profile_st = st.builds(
    LoopProfile,
    name=st.sampled_from(("a", "b", "c")),
    # No recurrence, an integral one and a fractional one.
    rec_mii=st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 4)),
    ),
    res_mii=st.integers(1, 12),
    ii_homogeneous=st.integers(1, 40),
    cycles_per_iteration=st.integers(1, 60),
    class_counts=st.dictionaries(
        st.sampled_from(COMPUTE_CLASSES), st.integers(0, 30), max_size=5
    ),
    energy_units_per_iteration=st.integers(1, 400).map(lambda n: n / 8),
    comms_per_iteration=st.one_of(st.just(0), st.integers(1, 24)),
    mem_accesses_per_iteration=st.integers(0, 20),
    lifetime_cycles_per_iteration=st.one_of(st.just(0), st.integers(1, 1200)),
    trip_count=st.one_of(
        st.just(1.0), st.integers(5, 40_000).map(lambda n: n / 4)
    ),
    weight=st.integers(1, 4000).map(lambda n: n / 2),
    critical_energy_fraction=st.integers(0, 20).map(lambda n: n / 20),
    critical_boundary_edges=st.integers(0, 6),
)
program_profile_st = st.lists(loop_profile_st, min_size=1, max_size=5).map(
    lambda loops: ProgramProfile(name="random", loops=loops)
)

#: The paper's design space and a small one with two fast-cluster counts
#: and off-decimal speeds.
SELECTOR_SPECS = (
    DesignSpaceSpec.paper(),
    DesignSpaceSpec(
        fast_factors=(Fraction(3, 4), Fraction(1), Fraction(4, 3)),
        slow_over_fast=(Fraction(1), Fraction(4, 3), Fraction(3, 2)),
        n_fast_options=(1, 2),
        cluster_vdd_grid=volt_grid(0.7, 1.2, 0.1),
        icn_vdd_grid=volt_grid(0.8, 1.1, 0.1),
        cache_vdd_grid=volt_grid(1.0, 1.4, 0.1),
        homogeneous_vdd_grid=volt_grid(0.9, 1.2, 0.1),
    ),
)


class TestSelectorOracle:
    """The hoisted selector returns exactly what the parent's walk did."""

    @settings(max_examples=120, deadline=None)
    @given(
        profile=program_profile_st,
        clusters=st.lists(
            st.sampled_from((*ODD_PERIODS, Fraction(1), Fraction(9, 10), Fraction(3, 2))),
            min_size=4,
            max_size=4,
        ),
        icn=st.sampled_from((*ODD_PERIODS, Fraction(1), Fraction(11, 10))),
        buses=st.integers(1, 2),
    )
    def test_program_time(self, profile, clusters, icn, buses):
        machine = paper_machine(n_buses=buses)
        speeds = MachineSpeeds(tuple(clusters), icn, icn)
        new, parent = TimeModel(machine), ParentTimeModel(machine)
        assert new.program_time(profile, speeds) == parent.program_time(
            profile, speeds
        )
        for loop in profile.loops:
            assert new.loop_estimate(loop, speeds) == parent.loop_estimate(
                loop, speeds
            )
            assert new.minimum_initiation_time(
                loop, speeds
            ) == parent.minimum_initiation_time(loop, speeds)

    @settings(max_examples=60, deadline=None)
    @given(
        profile=program_profile_st,
        reference=st.sampled_from(
            (Fraction(1), Fraction(4, 3), Fraction(5, 6), Fraction(1, 3))
        ),
        buses=st.integers(1, 2),
        spec=st.sampled_from(SELECTOR_SPECS),
        distribution=st.sampled_from(("critical", "half")),
    )
    def test_selection(self, profile, reference, buses, spec, distribution):
        machine = paper_machine(n_buses=buses)
        technology = TechnologyModel()
        units = calibrate(
            profile,
            DomainSetting(reference, 1.0, 0.25),
            EnergyBreakdown.paper_baseline(),
            machine.n_clusters,
        )
        new = ConfigurationSelector(machine, technology, spec, distribution)
        parent = ParentSelector(machine, technology, spec, distribution)
        assert selection_outcome(new.select, profile, units) == selection_outcome(
            parent.select, profile, units
        )
        assert new.enumerate(profile, units) == parent.enumerate(profile, units)
        args = (profile, machine, technology, units, spec)
        assert selection_outcome(optimum_homogeneous, *args) == selection_outcome(
            parent_optimum_homogeneous, *args
        )

    @pytest.mark.parametrize("profile_name", ("173.applu", "301.apsi"))
    def test_spec_profiles(self, profile_name):
        """A reference-machine profile of a SPEC2000 corpus, priced both ways."""
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        try:
            corpus = build_corpus(spec_profile(profile_name), scale=0.02)
            evaluation = Experiment.paper(ExperimentOptions()).run(corpus)
        finally:
            clear_loop_cache(reset_stats=True)
        profile = evaluation.profile
        machine = paper_machine()
        technology = TechnologyModel()
        units = calibrate(
            profile,
            technology.reference_setting,
            EnergyBreakdown.paper_baseline(),
            machine.n_clusters,
        )
        for spec in SELECTOR_SPECS:
            new = ConfigurationSelector(machine, technology, spec)
            parent = ParentSelector(machine, technology, spec)
            assert new.enumerate(profile, units) == parent.enumerate(profile, units)
            args = (profile, machine, technology, units, spec)
            assert optimum_homogeneous(*args) == parent_optimum_homogeneous(*args)


# ----------------------------------------------------------------------
# Plain-number selector: the voltage table holds float rows and the IT
# scan takes the demand as ints.  Independent oracles: the table against
# ``domain_setting`` and the DomainSetting scalings, the scan against a
# walk over every grid int.
# ----------------------------------------------------------------------
#: Technologies around the paper's: alpha, subthreshold slope, margin.
technology_st = st.builds(
    TechnologyModel,
    alpha=st.sampled_from((1.0, 1.3, 1.7, 2.0)),
    subthreshold_slope=st.sampled_from((0.08, 0.1, 0.12)),
    vth_margin=st.sampled_from((0.05, 0.1, 0.2)),
)


@st.composite
def margin_edge_cycle_times(draw, technology, vdd_grid):
    """Cycle times whose solved Vth lands on (or an ulp off) a margin edge."""
    vdd = draw(st.sampled_from(vdd_grid))
    margin = technology.vth_margin
    vth = draw(st.sampled_from((margin * vdd, (1 - margin) * vdd)))
    frequency = technology.fmax(vdd, vth)
    direction = draw(st.sampled_from((0.0, math.inf)))
    for _ in range(draw(st.integers(0, 3))):
        frequency = math.nextafter(frequency, direction)
    return Fraction(1 / frequency)


class TestVoltageTableRows:
    """Every float row is exactly what the DomainSetting path gives."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), technology=technology_st)
    def test_rows_match_domain_setting(self, data, technology):
        vdd_grid = data.draw(
            st.sampled_from(
                (volt_grid(0.7, 1.2), volt_grid(0.8, 1.1), volt_grid(0.3, 2.0, 0.1))
            )
        )
        reference = DomainSetting(
            data.draw(st.sampled_from((Fraction(1), Fraction(4, 3), Fraction(1, 3)))),
            data.draw(st.sampled_from((0.9, 1.0, 1.2))),
            data.draw(st.sampled_from((0.2, 0.25, 0.3))),
        )
        cycle_time = data.draw(
            st.one_of(
                # Reachable, unreachable (Vth <= 0) and too slow for the
                # upper margin, on the design space's kinds of grid.
                st.builds(Fraction, st.integers(1, 60), st.sampled_from((1, 3, 4, 20))),
                margin_edge_cycle_times(technology, vdd_grid),
            )
        )
        rows = VoltageTable(technology, reference)(cycle_time, vdd_grid)
        expected = []
        for vdd in vdd_grid:
            setting = technology.domain_setting(cycle_time, vdd)
            if setting is None:
                continue
            expected.append(
                (
                    setting.vdd,
                    setting.vth,
                    dynamic_scale(setting, reference),
                    static_scale(setting, reference, technology.subthreshold_slope),
                )
            )
        assert rows == tuple(expected)

    def test_margin_edges_are_drawn_both_ways(self):
        """The edge strategy reaches both feasible and rejected points."""
        technology = TechnologyModel()
        grid = volt_grid(0.7, 1.2)
        seen = set()
        for vdd in grid:
            for vth in (0.1 * vdd, 0.9 * vdd):
                frequency = technology.fmax(vdd, vth)
                for direction in (0.0, math.inf):
                    nearby = math.nextafter(frequency, direction)
                    setting = technology.domain_setting(Fraction(1 / nearby), vdd)
                    seen.add(setting is None)
        assert seen == {True, False}


def brute_force_scan(machine, speeds, below, demand, comms, lifetimes):
    """The smallest grid IT ``>= below`` with enough slots, int by int."""
    quantum = speeds.time_quantum
    periods = [ct / quantum for ct in speeds.cluster_cycle_times]
    icn_period = speeds.icn_cycle_time / quantum
    it = below
    while True:
        iis = [it // period for period in periods]
        enough = all(
            sum(ii * machine.cluster(c).fu_count(fu) for c, ii in enumerate(iis))
            >= needed
            for fu, needed in demand.items()
        )
        if (
            enough
            and machine.interconnect.n_buses * (it // icn_period) >= comms
            and sum(ii * machine.cluster(c).n_regs for c, ii in enumerate(iis))
            >= lifetimes
        ):
            return it
        it += 1


cluster_config_st = st.builds(
    ClusterConfig,
    n_int=st.integers(0, 2),
    n_fp=st.integers(0, 2),
    n_mem=st.integers(1, 2),
    n_regs=st.integers(4, 32),
)


class TestScanOracle:
    """``SpeedsContext.scan`` against a walk over every grid int."""

    @settings(max_examples=150, deadline=None)
    @given(
        clusters=st.lists(cluster_config_st, min_size=1, max_size=4),
        cluster_periods=st.lists(
            st.one_of(periods_st, st.sampled_from(ODD_PERIODS)), min_size=4, max_size=4
        ),
        icn=st.one_of(periods_st, st.sampled_from(ODD_PERIODS)),
        buses=st.integers(1, 2),
        demand=st.dictionaries(st.sampled_from(list(FUType)), st.integers(0, 40)),
        comms=st.integers(1, 30),
        lifetimes=st.integers(1, 1500),
        below=st.integers(0, 400),
    )
    def test_matches_brute_force(
        self, clusters, cluster_periods, icn, buses, demand, comms, lifetimes, below
    ):
        base = paper_machine(n_buses=buses)
        machine = MachineDescription(
            clusters=tuple(clusters),
            interconnect=base.interconnect,
            memory=base.memory,
            isa=base.isa,
        )
        # Only FU kinds the machine has: the scan of a missing kind never
        # ends (see ``test_missing_fu_kind_is_infeasible``).
        demand = {
            fu: needed
            for fu, needed in demand.items()
            if any(cluster.fu_count(fu) for cluster in clusters)
        }
        speeds = MachineSpeeds(tuple(cluster_periods[: len(clusters)]), icn, icn)
        context = SpeedsContext(machine, speeds)
        needs = demand_codes(demand)
        it = context.scan(below, needs, comms, lifetimes)
        assert it == brute_force_scan(machine, speeds, below, demand, comms, lifetimes)
        # The same context answers again from its slot counts, and every
        # grid int below the answer fails the capacity test.
        assert context.scan(below, needs, comms, lifetimes) == it
        assert context.fits(it, needs, comms, lifetimes)
        assert not any(
            context.fits(other, needs, comms, lifetimes) for other in range(below, it)
        )

    def test_missing_fu_kind_is_infeasible(self, monkeypatch):
        machine = MachineDescription(
            clusters=(ClusterConfig(n_fp=0),) * 4,
            interconnect=paper_machine().interconnect,
            memory=paper_machine().memory,
            isa=paper_machine().isa,
        )
        speeds = MachineSpeeds.uniform(4, 1)
        monkeypatch.setattr("repro.scheduler.mii.MAX_CANDIDATES", 50)
        context = SpeedsContext(machine, speeds)
        needs = demand_codes({FUType.INT: 1, FUType.FP: 1})
        with pytest.raises(InfeasibleITError, match="'lp' within 50 candidates"):
            context.scan(1, needs, 0, 0, loop="lp")
        with pytest.raises(InfeasibleITError, match="within 50 candidates"):
            context.scan(1, needs, comms=1, lifetimes=1)
        with pytest.raises(InfeasibleITError):
            min_feasible_it(Fraction(1), machine, speeds, {FUType.FP: 1})
        assert not capacity_ok(Fraction(1000), machine, speeds, {FUType.FP: 1})
        builder = DDGBuilder("fp_only")
        builder.op("x", OpClass.FADD)
        with pytest.raises(InfeasibleITError, match="the machine has none"):
            res_mit(builder.build(), machine, speeds)


# ----------------------------------------------------------------------
# Integer time grid: the kernel, the schedule and the IT search compute
# on ints of one quantum.  The parent's Fraction versions, verbatim, are
# the oracle; every call the grid code makes is compared with them.
# ----------------------------------------------------------------------
def fraction_sync_penalty(sync_penalties, from_ct, to_ct):
    """One receiving-domain cycle on a frequency crossing (or zero)."""
    if sync_penalties and from_ct != to_ct:
        return Fraction(to_ct)
    return Fraction(0)


class FractionKernelTiming:
    """The parent kernel's timing methods, reading a live kernel's state."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.ctx = kernel._ctx
        self.delay = self.ctx.analysis.delay_by_dep

    def sync_penalty(self, from_ct, to_ct):
        return fraction_sync_penalty(self.ctx.options.sync_penalties, from_ct, to_ct)

    def cluster_ct(self, cluster):
        ct = self.ctx.cluster_cycle_times[cluster]
        if ct is None:
            raise SchedulingError(f"cluster {cluster} is gated at this IT")
        return ct

    def bus_window(self, dep, producer_cycle, consumer_cycle):
        ctx = self.ctx
        partition = self.kernel._partition
        icn_ct = ctx.icn_cycle_time
        if icn_ct is None:
            return (0, -1)  # empty window
        src_ct = self.cluster_ct(partition.cluster_of(dep.src))
        dst_ct = self.cluster_ct(partition.cluster_of(dep.dst))
        ready = producer_cycle * src_ct + self.delay[dep] * src_ct
        ready += self.sync_penalty(src_ct, icn_ct)
        b_min = ceil_div(ready, icn_ct)
        deadline = (
            consumer_cycle * dst_ct
            + dep.distance * ctx.it
            - self.sync_penalty(icn_ct, dst_ct)
        )
        b_max = floor_div(deadline, icn_ct) - ctx.machine.interconnect.latency
        return (b_min, b_max)

    def earliest_time(self, op):
        ctx = self.ctx
        kernel = self.kernel
        cluster = kernel._partition.cluster_of(op)
        dst_ct = self.cluster_ct(cluster)
        earliest = Fraction(0)
        for dep in ctx.ddg.in_edges(op):
            if dep.src not in kernel._placements or dep.src is op:
                continue
            src_placed = kernel._placements[dep.src]
            src_ct = self.cluster_ct(src_placed.cluster)
            available = src_placed.cycle * src_ct + self.delay[dep] * src_ct
            if kernel._needs_copy(dep):
                icn_ct = ctx.icn_cycle_time
                if icn_ct is None:
                    raise SchedulingError("communication on a gated interconnect")
                bus_ready = available + self.sync_penalty(src_ct, icn_ct)
                b_min = ceil_div(bus_ready, icn_ct)
                available = (
                    b_min + ctx.machine.interconnect.latency
                ) * icn_ct + self.sync_penalty(icn_ct, dst_ct)
            earliest = max(earliest, available - dep.distance * ctx.it)
        return earliest

    def deadline_violations(self, op, cycle):
        ctx = self.ctx
        kernel = self.kernel
        cluster = kernel._partition.cluster_of(op)
        src_ct = self.cluster_ct(cluster)
        violated = []
        for dep in ctx.ddg.out_edges(op):
            if dep.dst not in kernel._placements or dep.dst is op:
                continue
            if kernel._needs_copy(dep):
                continue
            consumer = kernel._placements[dep.dst]
            ready = (
                cycle * src_ct
                + self.delay[dep] * src_ct
                - dep.distance * ctx.it
            )
            if consumer.cycle * self.cluster_ct(consumer.cluster) < ready:
                violated.append(dep.dst)
        for dep in ctx.ddg.out_edges(op):
            if dep.dst is op and self.delay[dep] * src_ct > dep.distance * ctx.it:
                raise SchedulingError(
                    f"self-recurrence of {op.name} exceeds IT {ctx.it}"
                )
        return violated


def outcome(call, *args):
    """``("ok", value)`` or ``("raised", type, message)`` of one call."""
    try:
        return ("ok", call(*args))
    except (SchedulingError, SimulationError, InfeasibleITError) as error:
        return ("raised", type(error), str(error))


class CheckedKernel(KernelScheduler):
    """The kernel, checking every timing query against the Fraction copy."""

    #: Timing queries compared so far, by method.
    checked: Dict[str, int] = {"earliest": 0, "window": 0, "deadline": 0}

    def __init__(self, ctx, partition):
        super().__init__(ctx, partition)
        self._oracle = FractionKernelTiming(self)

    def _earliest_time(self, op):
        got = outcome(super()._earliest_time, op)
        want = outcome(self._oracle.earliest_time, op)
        if got[0] == "ok":
            ct = self._ctx.cluster_ct_q[self._partition.cluster_of(op)]
            got_start = max(0, -(-got[1] // ct))
            assert ("ok", self._ctx.quantum * got[1]) == want
            cluster_ct = self._oracle.cluster_ct(self._partition.cluster_of(op))
            assert got_start == max(0, ceil_div(want[1], cluster_ct))
        else:
            assert got == want
        self.checked["earliest"] += 1
        return super()._earliest_time(op)

    def _bus_window(self, dep, delay, producer_cycle, consumer_cycle):
        got = super()._bus_window(dep, delay, producer_cycle, consumer_cycle)
        assert got == self._oracle.bus_window(dep, producer_cycle, consumer_cycle)
        self.checked["window"] += 1
        return got

    def _deadline_violations(self, op, cycle):
        got = outcome(super()._deadline_violations, op, cycle)
        assert got == outcome(self._oracle.deadline_violations, op, cycle)
        self.checked["deadline"] += 1
        return super()._deadline_violations(op, cycle)


class FractionScheduleTiming:
    """The parent schedule's timing, validation and lifetimes, in Fraction."""

    def __init__(self, schedule):
        self.s = schedule

    def ct(self, index):
        return Fraction(1) / self.s.cluster_assignment(index).frequency

    def icn_ct(self):
        return Fraction(1) / self.s.icn_assignment.frequency

    def sync_penalty(self, from_ct, to_ct):
        return fraction_sync_penalty(self.s.sync_penalties, from_ct, to_ct)

    def issue_time(self, op):
        placed = self.s.placements[op]
        return placed.cycle * self.ct(placed.cluster)

    def finish_time(self, op):
        placed = self.s.placements[op]
        latency = self.s.machine.isa.latency(op.opclass)
        return (placed.cycle + latency) * self.ct(placed.cluster)

    def copy_issue_time(self, dep):
        return self.s.copies[dep].bus_cycle * self.icn_ct()

    def copy_arrival_time(self, dep):
        copy = self.s.copies[dep]
        icn_ct = self.icn_ct()
        arrival = (copy.bus_cycle + self.s.machine.interconnect.latency) * icn_ct
        consumer_ct = self.ct(self.s.placements[dep.dst].cluster)
        return arrival + self.sync_penalty(icn_ct, consumer_ct)

    def value_ready_time(self, dep):
        if dep in self.s.copies:
            ready = self.copy_arrival_time(dep)
        else:
            producer = self.s.placements[dep.src]
            delay = edge_delay(dep, self.s.machine.isa)
            ready = self.issue_time(dep.src) + delay * self.ct(producer.cluster)
        return ready - dep.distance * self.s.it

    def it_length(self):
        latest = Fraction(0)
        for op in self.s.placements:
            latest = max(latest, self.finish_time(op))
        for dep in self.s.copies:
            latest = max(latest, self.copy_arrival_time(dep))
        return latest

    def value_lifetimes(self):
        s = self.s
        lifetimes = []
        for op, placed in s.placements.items():
            if not op.opclass.writes_register:
                continue
            cluster = placed.cluster
            cluster_ct = self.ct(cluster)
            ii = s.cluster_assignment(cluster).ii
            start = placed.cycle + s.machine.isa.latency(op.opclass)
            end = start
            consumed = False
            for dep in s.ddg.out_edges(op):
                if not dep.carries_value:
                    continue
                consumed = True
                if dep in s.copies:
                    read_cycle = ceil_div(self.copy_issue_time(dep), cluster_ct)
                else:
                    consumer = s.placements[dep.dst]
                    read_cycle = consumer.cycle + dep.distance * ii
                end = max(end, read_cycle)
            if consumed:
                lifetimes.append((cluster, start, max(end, start)))
        for dep, copy in s.copies.items():
            consumer = s.placements[dep.dst]
            cluster = consumer.cluster
            cluster_ct = self.ct(cluster)
            ii = s.cluster_assignment(cluster).ii
            start = ceil_div(self.copy_arrival_time(dep), cluster_ct)
            end = consumer.cycle + dep.distance * ii
            lifetimes.append((cluster, start, max(end, start)))
        return lifetimes

    def validate_assignments(self):
        for assignment in self.s.assignments.values():
            if assignment.usable:
                ii_check = assignment.frequency * self.s.it
                if ii_check != assignment.ii:
                    raise SimulationError(
                        f"domain {assignment.domain}: II {assignment.ii} != "
                        f"f * IT = {ii_check}"
                    )

    def validate_dependences(self):
        s = self.s
        for dep in s.ddg.dependences:
            consumer = s.placements[dep.dst]
            producer = s.placements[dep.src]
            crosses = producer.cluster != consumer.cluster
            if dep.carries_value and crosses and dep not in s.copies:
                raise SimulationError(
                    f"value edge {dep.src.name}->{dep.dst.name} crosses "
                    "clusters without a copy"
                )
            if dep in s.copies:
                produce = self.issue_time(dep.src) + edge_delay(
                    dep, s.machine.isa
                ) * self.ct(producer.cluster)
                bus_ready = produce + self.sync_penalty(
                    self.ct(producer.cluster), self.icn_ct()
                )
                if self.copy_issue_time(dep) < bus_ready:
                    raise SimulationError(
                        f"copy of {dep.src.name}->{dep.dst.name} issues before "
                        "its value reaches the bus"
                    )
            ready = self.value_ready_time(dep)
            if self.issue_time(dep.dst) < ready:
                raise SimulationError(
                    f"dependence {dep.src.name}->{dep.dst.name} violated: "
                    f"consumer issues at {self.issue_time(dep.dst)}, "
                    f"value ready at {ready}"
                )


def check_schedule_timing(schedule):
    """Compare a schedule's grid timing with the Fraction copy, in full."""
    oracle = FractionScheduleTiming(schedule)
    assert outcome(schedule._validate_assignments) == outcome(
        oracle.validate_assignments
    )
    assert outcome(schedule._validate_dependences) == outcome(
        oracle.validate_dependences
    )
    length = schedule.it_length
    assert type(length) is Fraction and length == oracle.it_length()
    lifetimes = oracle.value_lifetimes()
    assert [
        (l.cluster, l.start, l.end) for l in schedule.value_lifetimes()
    ] == lifetimes
    peaks = [0] * schedule.machine.n_clusters
    for cluster in range(schedule.machine.n_clusters):
        ii = schedule.cluster_assignment(cluster).ii
        slots = [0] * max(ii, 1)
        for owner, start, end in lifetimes:
            if owner == cluster:
                for x in range(start, start + max(end - start, 1)):
                    slots[x % ii] += 1
        if any(owner == cluster for owner, _s, _e in lifetimes):
            peaks[cluster] = max(slots)
    assert schedule.max_live() == tuple(peaks)


def perturbed(schedule, rng):
    """A copy of ``schedule`` with a few placements or copies moved."""
    placements = dict(schedule.placements)
    copies = dict(schedule.copies)
    for _ in range(rng.randint(1, 3)):
        if copies and rng.random() < 0.4:
            dep = rng.choice(list(copies))
            cycle = max(0, copies[dep].bus_cycle + rng.choice((-2, -1, 1)))
            copies[dep] = PlacedCopy(dep=dep, bus_cycle=cycle)
        else:
            op = rng.choice(list(placements))
            placed = placements[op]
            cycle = max(0, placed.cycle + rng.choice((-2, -1, 1, 2)))
            placements[op] = PlacedOp(op=op, cluster=placed.cluster, cycle=cycle)
    return Schedule(
        schedule.ddg,
        schedule.machine,
        schedule.it,
        schedule.assignments,
        placements,
        copies,
        schedule.sync_penalties,
    )


def fraction_period_multiples(periods, start):
    """The parent's ``period_multiples``, on Fractions."""
    periods = sorted(set(periods))
    heap = [max(ceil_div(start, period), 1) * period for period in periods]
    _heapq.heapify(heap)
    previous = None
    while heap:
        value = _heapq.heappop(heap)
        if value == previous:
            continue
        for period in periods:
            if (value.numerator * period.denominator) % (
                value.denominator * period.numerator
            ) == 0:
                _heapq.heappush(heap, value + period)
        previous = value
        yield value


def fraction_capacity_ok(it, machine, speeds, demand, comms=0, lifetimes=0):
    """The parent's ``capacity_ok``, on Fractions and FU-keyed dicts."""
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


def fraction_min_feasible_it(
    start, machine, speeds, demand, comms=0, lifetimes=0, loop=""
):
    """The parent's ``min_feasible_it``, on Fractions."""
    if fraction_capacity_ok(start, machine, speeds, demand, comms, lifetimes):
        return start
    periods = list(speeds.cluster_cycle_times)
    if comms > 0:
        periods.append(speeds.icn_cycle_time)
    for steps, it in enumerate(fraction_period_multiples(periods, start)):
        if steps >= MAX_CANDIDATES:  # pragma: no cover - safety net
            break
        if it > start and fraction_capacity_ok(
            it, machine, speeds, demand, comms, lifetimes
        ):
            return it
    raise InfeasibleITError(
        f"no feasible IT found for loop {loop!r} within "
        f"{MAX_CANDIDATES} candidates"
    )


def fraction_preplace_recurrences(ctx):
    """The parent's recurrence pre-placement, on FU-keyed dicts."""
    pins = {}
    used = {c: {fu: 0 for fu in FUType} for c in range(ctx.n_clusters)}

    def fits(cluster, recurrence):
        ii = ctx.cluster_iis[cluster]
        if ii < 1:
            return False
        if recurrence.total_delay > recurrence.total_distance * ii:
            return False
        config = ctx.machine.cluster(cluster)
        demand = dict(used[cluster])
        for op in recurrence.operations:
            if op in pins:
                continue
            fu = fu_for(op.opclass)
            if fu is not None:
                demand[fu] += 1
        return all(demand[fu] <= ii * config.fu_count(fu) for fu in demand)

    slowest_first = [
        index
        for index in ctx.point.sorted_cluster_indices_slowest_first()
        if ctx.cluster_iis[index] >= 1
    ]
    for recurrence in ctx.recurrences:
        fits_everywhere = all(
            recurrence.total_delay <= recurrence.total_distance * ctx.cluster_iis[c]
            for c in range(ctx.n_clusters)
            if ctx.cluster_iis[c] >= 1
        )
        pinned_clusters = {pins[op] for op in recurrence.operations if op in pins}
        if len(pinned_clusters) > 1:
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
                continue
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
                fu = fu_for(op.opclass)
                if fu is not None:
                    used[target][fu] += 1
    return pins


def fraction_initial_partition(ctx, coarsening):
    """The parent's seed partition: FU-keyed dicts, Fraction slowness."""
    usable = ctx.usable_clusters()
    if not usable:
        raise PartitionError("no usable cluster at this IT")
    demand = {c: {fu: 0 for fu in FUType} for c in range(ctx.n_clusters)}
    assignment = {}

    def macro_demand(macro):
        counts = {fu: 0 for fu in FUType}
        for op in macro.ops:
            fu = fu_for(op.opclass)
            if fu is not None:
                counts[fu] += 1
        return counts

    def overload_after(cluster, macro):
        ii = ctx.cluster_iis[cluster]
        config = ctx.machine.cluster(cluster)
        extra = macro_demand(macro)
        total = 0
        for fu in extra:
            combined = demand[cluster][fu] + extra[fu]
            total += max(0, combined - ii * config.fu_count(fu))
        return total

    def place(macro, cluster):
        for op in macro.ops:
            assignment[op] = cluster
            fu = fu_for(op.opclass)
            if fu is not None:
                demand[cluster][fu] += 1

    pending = []
    for macro in coarsening.coarsest:
        if macro.pinned is not None:
            place(macro, macro.pinned)
        else:
            pending.append(macro)
    slowness = {
        c: ctx.point.cluster_setting(c).cycle_time for c in range(ctx.n_clusters)
    }
    for macro in sorted(pending, key=lambda m: (-m.size, m.ident)):
        best = min(
            usable,
            key=lambda c: (overload_after(c, macro), -slowness[c], c),
        )
        place(macro, best)
    return Partition(ctx.ddg, ctx.n_clusters, assignment)


#: ITs (ns) whose domain periods ``IT / II`` include non-decimal values
#: such as 4/3 and 1/3 ns.
GRID_ITS = (Fraction(4), Fraction(2), Fraction(8, 3), Fraction(6, 5), Fraction(12, 7))


@st.composite
def grid_contexts(draw):
    """A random loop on a random (frequency, II) assignment.

    Clusters may be gated (II 0), the interconnect period may differ from
    every cluster's, and synchronisation penalties may be off.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ddg = random_ddg(rng, max_ops=draw(st.integers(3, 14)))
    it = draw(st.sampled_from(GRID_ITS))
    iis = draw(st.lists(st.integers(0, 12), min_size=4, max_size=4))
    if not any(iis):
        iis[0] = draw(st.integers(1, 12))
    icn_ii = draw(st.integers(1, 12))
    cache_ii = draw(st.integers(0, 12))
    sync = draw(st.booleans())
    machine = paper_machine(n_buses=draw(st.integers(1, 2)))

    def assignment(domain, ii):
        return DomainAssignment(domain, Fraction(ii) / it, ii)

    assignments = {cluster_domain(i): assignment(cluster_domain(i), ii) for i, ii in enumerate(iis)}
    assignments[ICN_DOMAIN] = assignment(ICN_DOMAIN, icn_ii)
    assignments["cache"] = assignment("cache", cache_ii)

    def setting(ii):
        return DomainSetting(it / ii if ii else it, 1.0, 0.3)

    point = OperatingPoint(
        clusters=tuple(setting(ii) for ii in iis),
        icn=setting(icn_ii),
        cache=setting(cache_ii),
    )
    options = SchedulerOptions(sync_penalties=sync)
    return SchedulingContext(ddg, machine, point, assignments, it, options, 100.0, WEIGHTS)


class TestIntegerTimeGrid:
    """Grid arithmetic returns exactly what the parent's Fractions did."""

    @settings(max_examples=200, deadline=None)
    @given(ctx=grid_contexts(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_and_schedule(self, ctx, seed):
        q = ctx.quantum
        assert q * ctx.it_q == ctx.it
        for ct_q, ct in zip(ctx.cluster_ct_q, ctx.cluster_cycle_times):
            assert (ct_q is None) == (ct is None)
            assert ct is None or q * ct_q == ct
        assert ctx.icn_ct_q is not None and q * ctx.icn_ct_q == ctx.icn_cycle_time

        pins = outcome(preplace_recurrences, ctx)
        assert pins == outcome(fraction_preplace_recurrences, ctx)
        if pins[0] != "ok":
            return
        coarsening = coarsen(ctx, pins[1])
        seeded = initial_partition(ctx, coarsening)
        assert seeded.vector() == fraction_initial_partition(ctx, coarsening).vector()
        partition = refine(ctx, seeded, coarsening)

        try:
            placements, copies = CheckedKernel(ctx, partition).run()
        except SchedulingError:
            return
        schedule = Schedule(
            ctx.ddg,
            ctx.machine,
            ctx.it,
            ctx.assignments,
            placements,
            copies,
            ctx.options.sync_penalties,
        )
        schedule.validate()
        check_schedule_timing(schedule)
        rng = random.Random(seed)
        for _ in range(4):
            check_schedule_timing(perturbed(schedule, rng))

    @settings(max_examples=150, deadline=None)
    @given(
        clusters=st.lists(
            st.one_of(periods_st, st.sampled_from((Fraction(4, 3), Fraction(1, 3)))),
            min_size=4,
            max_size=4,
        ),
        icn=st.one_of(periods_st, st.just(Fraction(2, 3))),
        buses=st.integers(1, 2),
        demand=st.dictionaries(st.sampled_from(list(FUType)), st.integers(0, 60)),
        start=st.builds(Fraction, st.integers(0, 300), st.sampled_from((1, 3, 7, 20))),
        near=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 3), st.integers(1, 40), st.sampled_from((-1, 0, 1))),
        ),
        comms=st.integers(0, 40),
        lifetimes=st.integers(0, 1500),
    )
    def test_it_search(
        self, clusters, icn, buses, demand, start, near, comms, lifetimes
    ):
        if near is not None:
            # Just below, at or just above a multiple of a cluster period.
            index, k, side = near
            start = k * clusters[index] + Fraction(side, 1000)
        machine = paper_machine(n_buses=buses)
        speeds = MachineSpeeds(tuple(clusters), icn, icn)
        args = (machine, speeds, demand, comms, lifetimes)
        assert capacity_ok(start, *args) == fraction_capacity_ok(start, *args)
        for it in itertools.islice(fraction_period_multiples(clusters, start), 30):
            assert capacity_ok(it, *args) == fraction_capacity_ok(it, *args)
        got = outcome(min_feasible_it, start, *args)
        assert got == outcome(fraction_min_feasible_it, start, *args)
        assert got[0] == "raised" or type(got[1]) is Fraction
        periods = [*clusters, icn]
        new = list(itertools.islice(period_multiples(periods, start), PREFIX))
        assert new == list(
            itertools.islice(fraction_period_multiples(periods, start), PREFIX)
        )
        assert all(type(value) is Fraction for value in new)

    @pytest.mark.parametrize("profile_name", ["swim", "lucas", "sixtrack", "facerec"])
    def test_spec_corpora(self, profile_name, monkeypatch):
        """Every kernel query and every schedule of a paper run."""
        for key in CheckedKernel.checked:
            CheckedKernel.checked[key] = 0
        schedules = []
        validate = Schedule.validate

        def checked_validate(schedule):
            validate(schedule)
            check_schedule_timing(schedule)
            schedules.append(schedule)

        monkeypatch.setattr(
            "repro.scheduler.heterogeneous.KernelScheduler", CheckedKernel
        )
        monkeypatch.setattr(Schedule, "validate", checked_validate)
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        try:
            corpus = build_corpus(spec_profile(profile_name), scale=0.02)
            Experiment.paper(ExperimentOptions()).run(corpus)
        finally:
            clear_loop_cache(reset_stats=True)
        assert schedules and all(CheckedKernel.checked.values()), CheckedKernel.checked

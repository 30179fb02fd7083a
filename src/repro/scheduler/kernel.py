"""The iterative modulo-scheduling kernel (placement engine).

Rau's iterative modulo scheduling, generalised to heterogeneous timing:
all dependence reasoning happens in absolute time on the context's exact
integer grid (the IT, every cycle time and every synchronisation penalty
as ints of one quantum), while slots live on per-cluster modulo
reservation tables indexed in each cluster's local cycles and on the bus
table in interconnect cycles.

For each operation (most critical first) the engine computes the
earliest legal issue time from its placed producers (including bus
transfer and synchronisation-queue terms for cross-cluster values), then
scans one full II window of its cluster for a slot where

* the FU is free,
* every copy to/from already-placed neighbours can claim a bus cycle, and
* no placed consumer's deadline is violated.

When the window yields nothing, the op is *force-placed* one cycle past
its previous position: FU occupants and now-inconsistent neighbours are
evicted and re-queued.  A placement budget bounds the total work; its
exhaustion signals the driver to increase the IT.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.ir.dependence import Dependence
from repro.ir.operation import Operation
from repro.scheduler.context import SchedulingContext
from repro.scheduler.mrt import BUS, ModuloReservationTable, bus_mrt, cluster_mrt
from repro.scheduler.partition.partition import Partition
from repro.scheduler.schedule import PlacedCopy, PlacedOp
from repro.telemetry import span_count
from repro.telemetry import counter as _metric_counter

#: Reservation-table slot probes (cycles scanned for a free FU slot).
#: Counted locally per placement run and flushed once — the per-cycle
#: ``is_free`` path is far too hot to touch the registry directly.
_MRT_PROBES = _metric_counter(
    "repro_scheduler_mrt_probes_total",
    "Modulo-reservation-table cycles scanned during placement",
)


class KernelScheduler:
    """One placement run for a fixed IT, assignment and partition."""

    def __init__(self, ctx: SchedulingContext, partition: Partition):
        self._ctx = ctx
        self._partition = partition
        self._placements: Dict[Operation, PlacedOp] = {}
        self._copies: Dict[Dependence, PlacedCopy] = {}
        self._prev_cycle: Dict[Operation, int] = {}
        self._probes = 0

        analysis = ctx.analysis
        self._ranks = analysis.priority_ranks
        #: Per-op in- and out-edges paired with their delays.
        delay = analysis.delay_by_dep
        self._in_edges: Dict[Operation, List[Tuple[Dependence, int]]] = {
            op: [(dep, delay[dep]) for dep in ctx.ddg.in_edges(op)]
            for op in analysis.ops
        }
        self._out_edges: Dict[Operation, List[Tuple[Dependence, int]]] = {
            op: [(dep, delay[dep]) for dep in ctx.ddg.out_edges(op)]
            for op in analysis.ops
        }
        #: Dense FU code per op (-1 = occupies no cluster FU); the
        #: cluster tables are keyed by these codes.
        self._fu_code: Dict[Operation, int] = dict(
            zip(analysis.ops, analysis.op_fu_code)
        )
        self._tables: List[Optional[ModuloReservationTable]] = []
        for index in range(ctx.n_clusters):
            ii = ctx.cluster_iis[index]
            self._tables.append(
                cluster_mrt(ctx.machine.cluster(index), ii) if ii >= 1 else None
            )
        self._bus: Optional[ModuloReservationTable] = (
            bus_mrt(ctx.machine.interconnect.n_buses, ctx.icn_ii)
            if ctx.icn_ii >= 1
            else None
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _cluster_ct(self, cluster: int) -> int:
        """Running period of ``cluster`` in grid quanta."""
        ct = self._ctx.cluster_ct_q[cluster]
        if ct is None:
            raise SchedulingError(f"cluster {cluster} is gated at this IT")
        return ct

    def _needs_copy(self, dep: Dependence) -> bool:
        if not dep.carries_value:
            return False
        return self._partition.cluster_of(dep.src) != self._partition.cluster_of(
            dep.dst
        )

    def _bus_window(
        self, dep: Dependence, delay: int, producer_cycle: int, consumer_cycle: int
    ) -> Tuple[int, int]:
        """[min, max] bus cycles legal for the copy of ``dep``.

        ``producer_cycle``/``consumer_cycle`` are hypothetical local issue
        cycles (the op being placed is not in ``self._placements`` yet).
        """
        ctx = self._ctx
        icn_ct = ctx.icn_ct_q
        if icn_ct is None:
            return (0, -1)  # empty window
        src = self._partition.cluster_of(dep.src)
        dst = self._partition.cluster_of(dep.dst)
        ready = (producer_cycle + delay) * self._cluster_ct(src)
        ready += ctx.to_icn_sync_q[src]
        b_min = -(-ready // icn_ct)
        deadline = (
            consumer_cycle * self._cluster_ct(dst)
            + dep.distance * ctx.it_q
            - ctx.from_icn_sync_q[dst]
        )
        b_max = deadline // icn_ct - ctx.machine.interconnect.latency
        return (b_min, b_max)

    def _find_bus_cycle(self, b_min: int, b_max: int) -> Optional[int]:
        """First free bus cycle in the window (scans at most one II)."""
        if self._bus is None or b_min < 0:
            return None
        upper = min(b_max, b_min + self._ctx.icn_ii - 1)
        for cycle in range(b_min, upper + 1):
            if self._bus.is_free(cycle, BUS):
                return cycle
        return None

    # ------------------------------------------------------------------
    # constraint evaluation for a hypothetical placement
    # ------------------------------------------------------------------
    def _earliest_time(self, op: Operation) -> int:
        """Earliest legal issue instant (grid quanta) from placed producers
        (optimistic about bus availability — slots are checked during
        placement)."""
        ctx = self._ctx
        placements = self._placements
        it = ctx.it_q
        earliest = 0
        for dep, delay in self._in_edges[op]:
            if dep.src not in placements or dep.src is op:
                continue
            src_placed = placements[dep.src]
            available = (src_placed.cycle + delay) * self._cluster_ct(
                src_placed.cluster
            )
            if self._needs_copy(dep):
                icn_ct = ctx.icn_ct_q
                if icn_ct is None:
                    raise SchedulingError("communication on a gated interconnect")
                bus_ready = available + ctx.to_icn_sync_q[src_placed.cluster]
                b_min = -(-bus_ready // icn_ct)
                available = (
                    b_min + ctx.machine.interconnect.latency
                ) * icn_ct + ctx.from_icn_sync_q[self._partition.cluster_of(op)]
            available -= dep.distance * it
            if available > earliest:
                earliest = available
        return earliest

    def _deadline_violations(
        self, op: Operation, cycle: int
    ) -> List[Operation]:
        """Placed consumers whose timing a placement at ``cycle`` breaks.

        Only non-copy edges create hard deadlines here; copy edges are
        handled through bus-window search (an empty window reports the
        consumer as violated too).
        """
        ctx = self._ctx
        placements = self._placements
        it = ctx.it_q
        src_ct = self._cluster_ct(self._partition.cluster_of(op))
        violated: List[Operation] = []
        for dep, delay in self._out_edges[op]:
            if dep.dst is op:
                # Self-edge: issue(v) >= issue(v) + delay - w*IT, i.e. the
                # recurrence bound; violation means the IT is too small.
                if delay * src_ct > dep.distance * it:
                    raise SchedulingError(
                        f"self-recurrence of {op.name} exceeds IT {ctx.it}"
                    )
                continue
            if dep.dst not in placements or self._needs_copy(dep):
                continue  # copies are handled by _collect_copies
            consumer = placements[dep.dst]
            ready = (cycle + delay) * src_ct - dep.distance * it
            if consumer.cycle * self._cluster_ct(consumer.cluster) < ready:
                violated.append(dep.dst)
        return violated

    def _collect_copies(
        self, op: Operation, cycle: int
    ) -> Optional[List[Tuple[Dependence, int]]]:
        """Bus cycles for every copy touching ``op`` at this placement.

        Covers in-edges from placed producers and out-edges to placed
        consumers.  Reserves nothing; returns ``None`` when some edge has
        no free bus cycle in its legal window.
        """
        needed: List[Tuple[Dependence, int, int]] = []
        for dep, delay in self._in_edges[op]:
            if dep.src is op or dep.src not in self._placements:
                continue
            if self._needs_copy(dep):
                window = self._bus_window(
                    dep, delay, self._placements[dep.src].cycle, cycle
                )
                needed.append((dep, *window))
        for dep, delay in self._out_edges[op]:
            if dep.dst is op or dep.dst not in self._placements:
                continue
            if self._needs_copy(dep):
                window = self._bus_window(
                    dep, delay, cycle, self._placements[dep.dst].cycle
                )
                needed.append((dep, *window))

        if not needed:
            return []
        if self._bus is None:
            return None
        chosen: List[Tuple[Dependence, int]] = []
        try:
            for dep, b_min, b_max in needed:
                slot = self._find_bus_cycle(b_min, b_max)
                if slot is None:
                    return None
                self._bus.reserve(slot, BUS, dep)  # tentative
                chosen.append((dep, slot))
            return chosen
        finally:
            for (dep, slot) in chosen:
                self._bus.release(slot, BUS, dep)

    # ------------------------------------------------------------------
    # placement / eviction
    # ------------------------------------------------------------------
    def _commit(
        self, op: Operation, cycle: int, copy_slots: Iterable[Tuple[Dependence, int]]
    ) -> None:
        cluster = self._partition.cluster_of(op)
        code = self._fu_code[op]
        table = self._tables[cluster]
        if table is None:
            raise SchedulingError(f"cluster {cluster} is gated")
        if code >= 0:
            table.reserve(cycle, code, op)
        self._placements[op] = PlacedOp(op=op, cluster=cluster, cycle=cycle)
        self._prev_cycle[op] = cycle
        for dep, slot in copy_slots:
            assert self._bus is not None
            self._bus.reserve(slot, BUS, dep)
            self._copies[dep] = PlacedCopy(dep=dep, bus_cycle=slot)

    def _evict(self, op: Operation) -> None:
        placed = self._placements.pop(op)
        code = self._fu_code[op]
        table = self._tables[placed.cluster]
        if code >= 0 and table is not None:
            table.release(placed.cycle, code, op)
        for dep in list(self._copies):
            if dep.src is op or dep.dst is op:
                copy = self._copies.pop(dep)
                assert self._bus is not None
                self._bus.release(copy.bus_cycle, BUS, dep)

    def _try_window(self, op: Operation) -> bool:
        """Scan one II window for a conflict-free slot; commit if found."""
        ctx = self._ctx
        cluster = self._partition.cluster_of(op)
        ct = self._cluster_ct(cluster)
        ii = ctx.cluster_iis[cluster]
        table = self._tables[cluster]
        assert table is not None
        code = self._fu_code[op]
        start = max(0, -(-self._earliest_time(op) // ct))
        for cycle in range(start, start + ii):
            if code >= 0 and not table.is_free(cycle, code):
                continue
            if self._deadline_violations(op, cycle):
                continue
            copy_slots = self._collect_copies(op, cycle)
            if copy_slots is None:
                continue
            self._probes += cycle - start + 1
            self._commit(op, cycle, copy_slots)
            return True
        self._probes += ii
        return False

    def _force_place(self, op: Operation) -> List[Operation]:
        """Place ``op`` unconditionally; evict whatever stands in the way."""
        ctx = self._ctx
        cluster = self._partition.cluster_of(op)
        ct = self._cluster_ct(cluster)
        table = self._tables[cluster]
        assert table is not None
        start = max(0, -(-self._earliest_time(op) // ct))
        cycle = max(start, self._prev_cycle.get(op, -1) + 1)

        evicted: List[Operation] = []
        code = self._fu_code[op]
        if code >= 0:
            for occupant in table.force_reserve(cycle, code, op):
                evicted.append(occupant)  # released below via _evict
        # force_reserve cleared the slot; fix bookkeeping for the evictees
        # (their FU hold is already gone, so only placements/copies go).
        for other in evicted:
            placed = self._placements.pop(other)
            for dep in list(self._copies):
                if dep.src is other or dep.dst is other:
                    copy = self._copies.pop(dep)
                    assert self._bus is not None
                    self._bus.release(copy.bus_cycle, BUS, dep)
        self._placements[op] = PlacedOp(op=op, cluster=cluster, cycle=cycle)
        self._prev_cycle[op] = cycle

        # Now restore consistency with placed neighbours: allocate copies
        # where possible, evict neighbours whose constraints cannot hold.
        for dep, delay in self._in_edges[op] + self._out_edges[op]:
            neighbour = dep.src if dep.dst is op else dep.dst
            if neighbour is op or neighbour not in self._placements:
                continue
            if dep in self._copies:
                continue  # already satisfied by an existing copy
            if self._needs_copy(dep):
                if dep.dst is op:
                    window = self._bus_window(
                        dep, delay, self._placements[dep.src].cycle, cycle
                    )
                else:
                    window = self._bus_window(
                        dep, delay, cycle, self._placements[dep.dst].cycle
                    )
                slot = self._find_bus_cycle(*window)
                if slot is None:
                    self._evict(neighbour)
                    evicted.append(neighbour)
                else:
                    assert self._bus is not None
                    self._bus.reserve(slot, BUS, dep)
                    self._copies[dep] = PlacedCopy(dep=dep, bus_cycle=slot)
            else:
                src_placed = self._placements[dep.src]
                dst_placed = self._placements[dep.dst]
                ready = (
                    src_placed.cycle + delay
                ) * self._cluster_ct(src_placed.cluster) - dep.distance * ctx.it_q
                if dst_placed.cycle * self._cluster_ct(dst_placed.cluster) < ready:
                    self._evict(neighbour)
                    evicted.append(neighbour)
        return evicted

    # ------------------------------------------------------------------
    def run(self) -> Tuple[Dict[Operation, PlacedOp], Dict[Dependence, PlacedCopy]]:
        """Schedule every operation or raise :class:`SchedulingError`."""
        ctx = self._ctx
        budget = ctx.options.budget_ratio * max(len(ctx.ddg), 1)
        counter = 0
        heap: List[Tuple[int, int, Operation]] = []
        for op in ctx.ddg.operations:
            heapq.heappush(heap, (self._ranks[op], counter, op))
            counter += 1

        try:
            while heap:
                _rank, _seq, op = heapq.heappop(heap)
                if op in self._placements:
                    continue  # stale entry
                if budget <= 0:
                    raise SchedulingError(
                        f"placement budget exhausted for {ctx.ddg.name!r}"
                        f" at IT={ctx.it}"
                    )
                budget -= 1
                if self._try_window(op):
                    continue
                for evicted in self._force_place(op):
                    heapq.heappush(heap, (self._ranks[evicted], counter, evicted))
                    counter += 1
        finally:
            # One flush per placement run, success or not (the driver
            # retries failed runs at a larger IT; their work still counts).
            _MRT_PROBES.inc(self._probes)
            span_count("mrt_probes", self._probes)
            self._probes = 0

        return dict(self._placements), dict(self._copies)

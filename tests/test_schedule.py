"""Tests for the Schedule data structure and its independent validator."""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.ir.builder import DDGBuilder
from repro.ir.loop import Loop
from repro.ir.opcodes import OpClass
from repro.machine import DomainSetting, OperatingPoint
from repro.machine.clocking import CACHE_DOMAIN, ICN_DOMAIN
from repro.machine.machine import paper_machine
from repro.scheduler.schedule import (
    DomainAssignment,
    PlacedCopy,
    PlacedOp,
    Schedule,
    TimeGrid,
)
from repro.scheduler import HeterogeneousModuloScheduler, HomogeneousModuloScheduler
from repro.workloads import build_corpus, spec_profile
from tests.conftest import build_recurrence_loop, build_tiny_loop


def hand_schedule():
    """A tiny 2-op schedule built by hand on the reference machine."""
    machine = paper_machine()
    b = DDGBuilder("hand")
    load = b.op("l", OpClass.LOAD)
    add = b.op("f", OpClass.FADD)
    dep = b.flow(load, add).build().dependences[0]
    ddg = dep.src  # placeholder; rebuilt below for clarity
    b2 = DDGBuilder("hand")
    load = b2.op("l", OpClass.LOAD)
    add = b2.op("f", OpClass.FADD)
    b2.flow(load, add)
    ddg = b2.build()
    dep = ddg.dependences[0]

    assignments = {}
    for index in range(4):
        assignments[f"cluster{index}"] = DomainAssignment(
            f"cluster{index}", Fraction(1), 4
        )
    assignments[ICN_DOMAIN] = DomainAssignment(ICN_DOMAIN, Fraction(1), 4)
    assignments[CACHE_DOMAIN] = DomainAssignment(CACHE_DOMAIN, Fraction(1), 4)
    placements = {
        load: PlacedOp(load, cluster=0, cycle=0),
        add: PlacedOp(add, cluster=1, cycle=4),
    }
    copies = {dep: PlacedCopy(dep, bus_cycle=2)}
    return Schedule(
        ddg,
        machine,
        it=Fraction(4),
        assignments=assignments,
        placements=placements,
        copies=copies,
    )


class TestTiming:
    def test_issue_and_finish(self):
        schedule = hand_schedule()
        load = schedule.ddg.operation("l")
        assert schedule.issue_time(load) == 0
        assert schedule.finish_time(load) == 2  # latency 2 at 1 ns

    def test_copy_times(self):
        schedule = hand_schedule()
        dep = schedule.ddg.dependences[0]
        assert schedule.copy_issue_time(dep) == 2
        # Same frequency everywhere: no sync penalty; +1 bus cycle.
        assert schedule.copy_arrival_time(dep) == 3

    def test_it_length_and_stage_count(self):
        schedule = hand_schedule()
        # add issues at 4, latency 3 -> finishes at 7.
        assert schedule.it_length == 7
        assert schedule.stage_count == 2

    def test_execution_time(self):
        schedule = hand_schedule()
        assert schedule.execution_time(10) == pytest.approx(9 * 4 + 7)
        with pytest.raises(ValueError):
            schedule.execution_time(0)

    def test_counts(self):
        schedule = hand_schedule()
        assert schedule.comms_per_iteration == 1
        assert schedule.mem_accesses_per_iteration == 1
        units = schedule.cluster_energy_units()
        assert units[0] == pytest.approx(1.0)  # the load
        assert units[1] == pytest.approx(1.2)  # the FADD


class TestValidator:
    def test_valid_schedule_passes(self):
        hand_schedule().validate()

    def test_missing_placement_detected(self):
        schedule = hand_schedule()
        add = schedule.ddg.operation("f")
        del schedule.placements[add]
        with pytest.raises(SimulationError):
            schedule.validate()

    def test_fu_oversubscription_detected(self):
        schedule = hand_schedule()
        load = schedule.ddg.operation("l")
        add = schedule.ddg.operation("f")
        # Two memory ops in the same modulo slot of cluster 0 would clash;
        # here we abuse the FADD by moving it onto the load's FU row —
        # different FU type, so instead clash two loads.
        b = DDGBuilder("clash")
        l1, l2 = b.op("l1", OpClass.LOAD), b.op("l2", OpClass.LOAD)
        ddg = b.build(validate=False)
        assignments = dict(schedule.assignments)
        placements = {
            l1: PlacedOp(l1, cluster=0, cycle=0),
            l2: PlacedOp(l2, cluster=0, cycle=4),  # same row mod 4
        }
        clashing = Schedule(
            ddg, schedule.machine, Fraction(4), assignments, placements, {}
        )
        with pytest.raises(SimulationError):
            clashing.validate()

    def test_missing_copy_detected(self):
        schedule = hand_schedule()
        dep = schedule.ddg.dependences[0]
        del schedule.copies[dep]
        with pytest.raises(SimulationError):
            schedule.validate()

    def test_dependence_violation_detected(self):
        schedule = hand_schedule()
        add = schedule.ddg.operation("f")
        schedule.placements[add] = PlacedOp(add, cluster=1, cycle=1)
        with pytest.raises(SimulationError):
            schedule.validate()

    def test_copy_before_produce_detected(self):
        schedule = hand_schedule()
        dep = schedule.ddg.dependences[0]
        schedule.copies[dep] = PlacedCopy(dep, bus_cycle=0)  # load ends at 2
        with pytest.raises(SimulationError):
            schedule.validate()

    def test_assignment_consistency_checked(self):
        schedule = hand_schedule()
        schedule.assignments["cluster0"] = DomainAssignment(
            "cluster0", Fraction(1), 5
        )  # f * IT = 4 != 5
        with pytest.raises(SimulationError):
            schedule.validate()


class TestLifetimes:
    def test_hand_lifetime(self):
        schedule = hand_schedule()
        lifetimes = schedule.value_lifetimes()
        # Producer value: cluster 0, written at 2, exported by the copy
        # at bus time 2 -> producer-side lifetime [2, 2) -> length 1.
        # Copy value: cluster 1, arrives at 3, read at 4 -> [3, 4).
        by_cluster = {l.cluster: l for l in lifetimes}
        assert by_cluster[0].length == 1
        assert by_cluster[1].start == 3
        assert by_cluster[1].end == 4

    def test_max_live_reasonable(self, machine, reference_point):
        loop = build_recurrence_loop()
        schedule = HomogeneousModuloScheduler(machine).schedule(loop)
        peaks = schedule.max_live()
        assert all(0 <= peak <= 16 for peak in peaks)

    def test_sum_lifetimes_positive(self, machine):
        loop = build_tiny_loop()
        schedule = HomogeneousModuloScheduler(machine).schedule(loop)
        assert schedule.sum_lifetimes() > 0

    def test_loop_carried_consumer_extends_lifetime(self, machine):
        # acc -> acc with distance 1: the value lives about one full II.
        loop = build_tiny_loop()
        schedule = HomogeneousModuloScheduler(machine).schedule(loop)
        acc = loop.ddg.operation("acc")
        placed = schedule.placements[acc]
        ii = schedule.cluster_assignment(placed.cluster).ii
        lifetimes = [
            l for l in schedule.value_lifetimes() if l.cluster == placed.cluster
        ]
        assert any(l.length >= 1 for l in lifetimes)


#: Cluster 0 at 1 ns, three clusters at 4/3 ns and the bus at 2/3 ns:
#: periods off any decimal grid, with a sync penalty on every crossing.
THIRDS_POINT = OperatingPoint(
    clusters=(
        DomainSetting(Fraction(1), 1.1, 0.28),
        *[DomainSetting(Fraction(4, 3), 0.8, 0.30)] * 3,
    ),
    icn=DomainSetting(Fraction(2, 3), 1.0, 0.30),
    cache=DomainSetting(Fraction(1), 1.0, 0.30),
)


def thirds_schedules():
    """Kernel-built schedules of the first swim loops on THIRDS_POINT."""
    scheduler = HeterogeneousModuloScheduler(paper_machine())
    corpus = build_corpus(spec_profile("swim"), scale=0.02)
    return [scheduler.schedule(loop, THIRDS_POINT) for loop in list(corpus)[:8]]


def rebuilt(schedule, placements=None, copies=None):
    return Schedule(
        schedule.ddg,
        schedule.machine,
        schedule.it,
        schedule.assignments,
        placements if placements is not None else schedule.placements,
        copies if copies is not None else schedule.copies,
        schedule.sync_penalties,
    )


class TestGridValidatorMutations:
    """The validator's integer grid still catches a one-cycle slip."""

    def test_consumer_one_cycle_early(self):
        caught_by_timing = 0
        for schedule in thirds_schedules():
            schedule.validate()
            for dep in schedule.ddg.dependences:
                consumer = schedule.placements[dep.dst]
                tight = schedule.issue_time(dep.dst) == schedule.value_ready_time(dep)
                if not tight or consumer.cycle == 0:
                    continue
                placements = dict(schedule.placements)
                placements[dep.dst] = PlacedOp(
                    dep.dst, consumer.cluster, consumer.cycle - 1
                )
                with pytest.raises(SimulationError) as error:
                    rebuilt(schedule, placements=placements).validate()
                caught_by_timing += "violated" in str(error.value)
        assert caught_by_timing > 0

    def test_copy_one_bus_cycle_early(self):
        moved = 0
        for schedule in thirds_schedules():
            for dep, copy in schedule.copies.items():
                if copy.bus_cycle == 0:
                    continue
                copies = dict(schedule.copies)
                copies[dep] = PlacedCopy(dep, copy.bus_cycle - 1)
                with pytest.raises(SimulationError, match="reaches the bus"):
                    rebuilt(schedule, copies=copies).validate()
                moved += 1
        assert moved > 0


class TestPublicTimeBoundary:
    """Grid ints stay inside: every public time is still a Fraction."""

    def test_schedule_accessors_return_fractions(self):
        schedules = thirds_schedules()
        assert any(schedule.copies for schedule in schedules)
        for schedule in schedules:
            assert type(schedule.it) is Fraction
            assert type(schedule.it_length) is Fraction
            assert type(schedule.icn_cycle_time) is Fraction
            for op in schedule.placements:
                assert type(schedule.issue_time(op)) is Fraction
                assert type(schedule.finish_time(op)) is Fraction
            for dep in schedule.copies:
                assert type(schedule.copy_issue_time(dep)) is Fraction
                assert type(schedule.copy_arrival_time(dep)) is Fraction
            for dep in schedule.ddg.dependences:
                assert type(schedule.value_ready_time(dep)) is Fraction
            for assignment in schedule.assignments.values():
                assert type(assignment.frequency) is Fraction
                if assignment.usable:
                    assert type(assignment.cycle_time) is Fraction

    def test_cached_cycle_time_keeps_equality_and_hash(self):
        first = DomainAssignment("cluster0", Fraction(3, 4), 3)
        second = DomainAssignment("cluster0", Fraction(3, 4), 3)
        before = hash(first)
        assert first.cycle_time == Fraction(4, 3)
        assert first.cycle_time is first.cycle_time  # computed once
        assert first == second and hash(first) == hash(second) == before
        assert repr(first) == repr(second)
        assert {first: 1}[second] == 1
        assert first != DomainAssignment("cluster0", Fraction(3, 2), 6)

    def test_sync_penalty_is_shared_by_validator_and_simulator(self):
        schedule = hand_schedule()
        ct = Fraction(4, 3)
        assert schedule.sync_penalty(Fraction(1), ct) == ct
        assert schedule.sync_penalty(ct, ct) == 0
        assert schedule.sync_penalty(3, 4) == 4  # grid quanta work too
        schedule.sync_penalties = False
        assert schedule.sync_penalty(Fraction(1), ct) == 0


class TestTimeGridCache:
    """``time_grid`` is kept, and derived again after an in-place edit."""

    def test_kept_between_calls(self):
        schedule = hand_schedule()
        grid = schedule.time_grid()
        schedule.validate()
        assert schedule.it_length == 7
        assert schedule.time_grid() is grid

    def test_edited_it_gives_a_new_grid(self):
        schedule = hand_schedule()
        first = schedule.time_grid()
        assert (first.quantum, first.it) == (Fraction(1), 4)
        schedule.it = Fraction(10, 3)
        grid = schedule.time_grid()
        assert (grid.quantum, grid.it, grid.cluster_cts[0]) == (Fraction(1, 3), 10, 3)
        assert grid == TimeGrid.of(schedule.it, schedule.assignments, 4)
        assert schedule.it_length == 7  # same instants on the finer grid

    def test_edited_assignment_gives_a_new_grid(self):
        schedule = hand_schedule()
        assert schedule.it_length == 7
        # Cluster 1 at half speed: the add issues at cycle 4 of a 2 ns
        # clock and finishes three cycles later.
        schedule.assignments["cluster1"] = DomainAssignment(
            "cluster1", Fraction(1, 2), 2
        )
        assert schedule.time_grid().cluster_cts[1] == 2
        assert schedule.it_length == 14

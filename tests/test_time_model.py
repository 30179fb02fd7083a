"""Tests for the section 3.2 execution-time estimate."""

from fractions import Fraction

import pytest

from repro.ir.opcodes import OpClass
from repro.machine.machine import paper_machine
from repro.machine.operating_point import MachineSpeeds
from repro.power.profile import LoopProfile
from repro.power.time_model import TimeModel
from repro.scheduler.mii import fu_demand
from repro.machine.fu import FUType


def loop_profile(
    rec_mii=Fraction(0),
    counts=None,
    comms=0,
    lifetimes=0,
    trip=100.0,
    cycles=10,
):
    return LoopProfile(
        name="l",
        rec_mii=rec_mii,
        res_mii=1,
        ii_homogeneous=3,
        cycles_per_iteration=cycles,
        class_counts=counts if counts is not None else {OpClass.FADD: 4},
        energy_units_per_iteration=4.8,
        comms_per_iteration=comms,
        mem_accesses_per_iteration=0,
        lifetime_cycles_per_iteration=lifetimes,
        trip_count=trip,
        weight=1.0,
    )


def het_speeds(fast=Fraction(1), ratio=Fraction(3, 2)):
    slow = fast * ratio
    return MachineSpeeds((fast, slow, slow, slow), fast, fast)


class TestFuDemand:
    def test_demand_by_type(self):
        demand = fu_demand({OpClass.LOAD: 2, OpClass.FADD: 3, OpClass.IADD: 1})
        assert demand[FUType.MEM] == 2
        assert demand[FUType.FP] == 3
        assert demand[FUType.INT] == 1


class TestMinimumIT:
    def setup_method(self):
        self.model = TimeModel(paper_machine())

    def test_recurrence_binds(self):
        profile = loop_profile(rec_mii=Fraction(9))
        speeds = het_speeds(fast=Fraction(9, 10))
        it = self.model.minimum_initiation_time(profile, speeds)
        # recMIT = 9 * 0.9 ns; four FADDs fit easily at that IT.
        assert it == Fraction(81, 10)

    def test_capacity_binds(self):
        # 12 FP ops; at IT = Tfast the fast cluster gives 1 slot and each
        # slow cluster 0 -> the IT must grow.
        profile = loop_profile(counts={OpClass.FADD: 12})
        speeds = het_speeds()
        it = self.model.minimum_initiation_time(profile, speeds)
        iis = [it // ct for ct in speeds.cluster_cycle_times]
        slots = sum(int(ii) for ii in iis)
        assert slots >= 12

    def test_homogeneous_capacity_matches_resmii(self):
        profile = loop_profile(counts={OpClass.FADD: 12})
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        # 12 FP ops on 4 FP units -> 3 cycles.
        assert self.model.minimum_initiation_time(profile, speeds) == 3

    def test_comm_slots_bind(self):
        profile = loop_profile(comms=4)
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        # 4 comms on one single-cycle bus -> IT >= 4 cycles.
        assert self.model.minimum_initiation_time(profile, speeds) >= 4

    def test_lifetime_slots_bind(self):
        profile = loop_profile(lifetimes=130)
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        # 64 registers x II >= 130 -> II >= 3.
        assert self.model.minimum_initiation_time(profile, speeds) >= 3

    def test_faster_cluster_lowers_recurrence_bound(self):
        profile = loop_profile(rec_mii=Fraction(9))
        slow = self.model.minimum_initiation_time(profile, het_speeds(Fraction(1)))
        fast = self.model.minimum_initiation_time(
            profile, het_speeds(Fraction(9, 10))
        )
        assert fast < slow


class TestLoopEstimate:
    def setup_method(self):
        self.model = TimeModel(paper_machine())

    def test_it_length_uses_mean_cycle_time(self):
        profile = loop_profile(cycles=10)
        speeds = het_speeds()
        estimate = self.model.loop_estimate(profile, speeds)
        assert estimate.it_length_ns == pytest.approx(
            10 * float(speeds.mean_cluster_cycle_time)
        )

    def test_total_formula(self):
        profile = loop_profile(trip=100.0)
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        estimate = self.model.loop_estimate(profile, speeds)
        assert estimate.total_ns == pytest.approx(
            (100 - 1) * float(estimate.it) + estimate.it_length_ns
        )

    def test_program_time_sums_loops(self):
        profile_a = loop_profile(trip=10)
        from repro.power.profile import ProgramProfile

        program = ProgramProfile(name="p", loops=[profile_a, profile_a])
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        single = self.model.loop_estimate(profile_a, speeds).total_ns
        assert self.model.program_time(program, speeds) == pytest.approx(2 * single)

    def test_cluster_count_mismatch(self):
        speeds = MachineSpeeds.uniform(2, Fraction(1))
        with pytest.raises(ValueError):
            self.model.minimum_initiation_time(loop_profile(), speeds)

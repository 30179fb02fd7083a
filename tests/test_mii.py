"""Tests for MIT computation, including the paper's Figure 4 example."""

from fractions import Fraction

import pytest

from repro.ir.builder import DDGBuilder
from repro.ir.opcodes import OpClass
from repro.machine.cluster import ClusterConfig
from repro.machine.interconnect import InterconnectConfig
from repro.machine.machine import MachineDescription, paper_machine
from repro.machine.isa import ClassEntry, InstructionTable
from repro.machine.operating_point import MachineSpeeds
from repro.scheduler.mii import (
    capacity_table,
    fu_demand,
    minimum_initiation_time,
    rec_mit,
    res_mit,
)
from repro.machine.fu import FUType


def figure4_machine():
    """Two clusters of one (integer) FU each, unit latencies.

    The Figure 4 example assumes 1-cycle instructions and one slot per
    cluster per cycle.
    """
    table = InstructionTable.paper_defaults()
    table = table.with_entry(OpClass.IADD, ClassEntry(1, 1.0))
    return MachineDescription(
        clusters=(
            ClusterConfig(n_int=1, n_fp=0, n_mem=0, n_regs=16),
            ClusterConfig(n_int=1, n_fp=0, n_mem=0, n_regs=16),
        ),
        interconnect=InterconnectConfig(n_buses=1),
        isa=table,
    )


def figure4_ddg():
    """A-B-C recurrence plus D, E (five 1-cycle instructions)."""
    b = DDGBuilder("fig4")
    ops = {name: b.op(name, OpClass.IADD) for name in "ABCDE"}
    b.flow(ops["A"], ops["B"]).flow(ops["B"], ops["C"])
    b.flow(ops["C"], ops["A"], distance=1)
    b.flow(ops["A"], ops["D"]).flow(ops["B"], ops["E"])
    return b.build()


def figure4_speeds():
    """C1 at 1 ns, C2 at 1.67 ns (= 5/3)."""
    return MachineSpeeds(
        (Fraction(1), Fraction(5, 3)), Fraction(1), Fraction(1)
    )


class TestFigure4:
    def test_rec_mit(self):
        machine = figure4_machine()
        # Recurrence {A,B,C}: 3 cycles x 1 ns = 3 ns.
        assert rec_mit(figure4_ddg(), machine.isa, figure4_speeds()) == 3

    def test_res_mit(self):
        # Five instructions: IT = 3.33 ns gives 3 slots on C1, 2 on C2.
        machine = figure4_machine()
        assert res_mit(figure4_ddg(), machine, figure4_speeds()) == Fraction(10, 3)

    def test_mit_is_max(self):
        machine = figure4_machine()
        assert minimum_initiation_time(
            figure4_ddg(), machine, figure4_speeds()
        ) == Fraction(10, 3)

    def test_capacity_table_matches_paper(self):
        """The (IT, II_C1, II_C2, capacity) rows printed in Figure 4."""
        machine = figure4_machine()
        rows = {
            row.it: (row.cluster_iis, row.total_slots)
            for row in capacity_table(machine, figure4_speeds(), Fraction(10, 3))
        }
        assert rows[Fraction(1)] == ((1, 0), 1)
        assert rows[Fraction(5, 3)] == ((1, 1), 2)
        assert rows[Fraction(2)] == ((2, 1), 3)
        assert rows[Fraction(3)] == ((3, 1), 4)
        assert rows[Fraction(10, 3)] == ((3, 2), 5)


class TestResMitGeneral:
    def test_homogeneous_equals_resmii_times_cycle(self):
        machine = paper_machine()
        b = DDGBuilder()
        for i in range(9):
            b.op(f"l{i}", OpClass.LOAD)
        ddg = b.build(validate=False)
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        # 9 memory ops / 4 ports -> 3 cycles -> 3 ns.
        assert res_mit(ddg, machine, speeds) == 3

    def test_empty_demand(self):
        machine = paper_machine()
        b = DDGBuilder()
        b.op("c", OpClass.COPY)
        speeds = MachineSpeeds.uniform(4, Fraction(1))
        assert res_mit(b.build(validate=False), machine, speeds) == Fraction(1)

    def test_demand_counts(self):
        b = DDGBuilder()
        b.op("l", OpClass.LOAD)
        b.op("f", OpClass.FMUL)
        b.op("i", OpClass.BRANCH)
        demand = fu_demand(b.build(validate=False).class_counts())
        assert demand == {FUType.MEM: 1, FUType.FP: 1, FUType.INT: 1}

    def test_heterogeneous_capacity_loss_increases_mit(self):
        machine = paper_machine()
        b = DDGBuilder()
        for i in range(12):
            b.op(f"f{i}", OpClass.FADD)
        ddg = b.build(validate=False)
        uniform = MachineSpeeds.uniform(4, Fraction(1))
        het = MachineSpeeds(
            (Fraction(1), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)),
            Fraction(1),
            Fraction(1),
        )
        assert res_mit(ddg, machine, het) > res_mit(ddg, machine, uniform)

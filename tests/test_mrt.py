"""Tests for modulo reservation tables."""

import pytest

from repro.errors import SchedulingError
from repro.machine.cluster import ClusterConfig
from repro.machine.fu import FU_INDEX, FUType
from repro.scheduler.mrt import BUS, ModuloReservationTable, bus_mrt, cluster_mrt


class TestBasics:
    def test_modulo_wrap(self):
        table = ModuloReservationTable(3, {"x": 1})
        table.reserve(1, "x", "a")
        assert not table.is_free(4, "x")  # 4 mod 3 == 1
        assert table.is_free(2, "x")

    def test_capacity(self):
        table = ModuloReservationTable(2, {"x": 2})
        table.reserve(0, "x", "a")
        table.reserve(0, "x", "b")
        assert not table.is_free(0, "x")
        with pytest.raises(SchedulingError):
            table.reserve(2, "x", "c")

    def test_unknown_kind_has_zero_capacity(self):
        table = ModuloReservationTable(2, {"x": 1})
        assert table.capacity("y") == 0
        assert not table.is_free(0, "y")

    def test_ii_must_be_positive(self):
        with pytest.raises(SchedulingError):
            ModuloReservationTable(0, {"x": 1})


class TestRelease:
    def test_release_frees_slot(self):
        table = ModuloReservationTable(2, {"x": 1})
        table.reserve(1, "x", "a")
        table.release(1, "x", "a")
        assert table.is_free(1, "x")

    def test_release_by_identity(self):
        table = ModuloReservationTable(2, {"x": 2})
        token_a, token_b = object(), object()
        table.reserve(0, "x", token_a)
        table.reserve(0, "x", token_b)
        table.release(0, "x", token_a)
        assert table.occupants(0, "x") == (token_b,)

    def test_release_missing_raises(self):
        table = ModuloReservationTable(2, {"x": 1})
        with pytest.raises(SchedulingError):
            table.release(0, "x", "ghost")


class TestForceReserve:
    def test_evicts_occupants(self):
        table = ModuloReservationTable(2, {"x": 1})
        table.reserve(0, "x", "a")
        evicted = table.force_reserve(2, "x", "b")  # same row
        assert evicted == ("a",)
        assert table.occupants(0, "x") == ("b",)

    def test_no_instances_raises(self):
        table = ModuloReservationTable(2, {"x": 0})
        with pytest.raises(SchedulingError):
            table.force_reserve(0, "x", "a")


class TestFactories:
    def test_cluster_mrt(self):
        table = cluster_mrt(ClusterConfig(n_int=2, n_fp=1, n_mem=1), 4)
        assert table.ii == 4
        assert table.capacity(FU_INDEX[FUType.INT]) == 2
        assert table.capacity(FU_INDEX[FUType.FP]) == 1

    def test_bus_mrt(self):
        table = bus_mrt(2, 3)
        assert table.capacity(BUS) == 2
        table.reserve(0, BUS, "d1")
        table.reserve(3, BUS, "d2")  # same row
        assert not table.is_free(6, BUS)

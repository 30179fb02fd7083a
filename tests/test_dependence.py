"""Tests for dependence edges and their delay semantics."""

import copy
import pickle

import pytest

from repro.ir.dependence import Dependence, DepKind
from repro.ir.operation import Operation
from repro.ir.opcodes import OpClass


def ops():
    return Operation("u", OpClass.FMUL), Operation("v", OpClass.FADD)


class TestValidation:
    def test_negative_distance_rejected(self):
        u, v = ops()
        with pytest.raises(ValueError):
            Dependence(u, v, distance=-1)

    def test_negative_latency_override_rejected(self):
        u, v = ops()
        with pytest.raises(ValueError):
            Dependence(u, v, latency_override=-2)


class TestDelaySemantics:
    def test_flow_uses_producer_latency(self):
        u, v = ops()
        dep = Dependence(u, v)
        assert dep.delay_cycles(producer_latency=6) == 6

    def test_anti_is_zero(self):
        u, v = ops()
        dep = Dependence(u, v, kind=DepKind.ANTI)
        assert dep.delay_cycles(producer_latency=6) == 0

    def test_output_is_one(self):
        u, v = ops()
        dep = Dependence(u, v, kind=DepKind.OUTPUT)
        assert dep.delay_cycles(producer_latency=6) == 1

    def test_memory_uses_producer_latency(self):
        u, v = ops()
        dep = Dependence(u, v, kind=DepKind.MEMORY)
        assert dep.delay_cycles(producer_latency=2) == 2

    def test_override_wins(self):
        u, v = ops()
        dep = Dependence(u, v, kind=DepKind.ANTI, latency_override=3)
        assert dep.delay_cycles(producer_latency=6) == 3


class TestValueSemantics:
    def test_flow_from_register_writer_carries_value(self):
        u, v = ops()
        assert Dependence(u, v).carries_value

    def test_store_flow_carries_no_value(self):
        store = Operation("s", OpClass.STORE)
        _, v = ops()
        assert not Dependence(store, v).carries_value

    def test_memory_kind_carries_no_value(self):
        u, v = ops()
        assert not Dependence(u, v, kind=DepKind.MEMORY).carries_value

    def test_anti_carries_no_value(self):
        u, v = ops()
        assert not Dependence(u, v, kind=DepKind.ANTI).carries_value

    def test_loop_carried_flag(self):
        u, v = ops()
        assert Dependence(u, v, distance=2).is_loop_carried
        assert not Dependence(u, v).is_loop_carried

    def test_repr_mentions_endpoints(self):
        u, v = ops()
        text = repr(Dependence(u, v, distance=1, kind=DepKind.OUTPUT))
        assert "u" in text and "v" in text and "omega=1" in text


class TestHash:
    @pytest.mark.parametrize("kind", list(DepKind))
    @pytest.mark.parametrize("latency_override", (None, 0, 3))
    def test_hash_is_the_field_tuples(self, kind, latency_override):
        u, v = ops()
        dep = Dependence(u, v, 2, kind, latency_override)
        assert hash(dep) == hash((u, v, 2, kind, latency_override))

    def test_equal_edges_hash_alike_and_share_a_set_slot(self):
        u, v = ops()
        assert hash(Dependence(u, v, 1)) == hash(Dependence(u, v, 1))
        assert len({Dependence(u, v, 1), Dependence(u, v, 1)}) == 1
        assert len({Dependence(u, v, 1), Dependence(u, v, 2)}) == 2

    def test_copies_rebuild_their_hash(self):
        u, v = ops()
        dep = Dependence(u, v, 1, DepKind.MEMORY, 4)
        for clone in (copy.copy(dep), pickle.loads(pickle.dumps(dep))):
            assert hash(clone) == hash(
                (clone.src, clone.dst, 1, DepKind.MEMORY, 4)
            )
        assert copy.copy(dep) == dep

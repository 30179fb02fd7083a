"""The selector's shared design-space plan.

``select``, ``enumerate`` and ``optimum_homogeneous`` read everything
that no profile changes — structures, speeds contexts and their slot
counts, voltage rows — from one process-wide plan per (cluster shape,
technology, reference setting, design space).  These tests check that
a plan kept across calls answers exactly as one built for the call, that
a plan never answers for another key, that machines differing only
outside their cluster shape share one, that the cache stays within its
bound, and that threads racing on a cold cache agree with a serial run.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.machine.machine import MachineDescription, paper_machine
from repro.machine.operating_point import DomainSetting
from repro.pipeline import Experiment, ExperimentOptions
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.power.breakdown import EnergyBreakdown
from repro.power.calibration import calibrate
from repro.power.technology import TechnologyModel
from repro.scenarios import bundled_pack_paths, find_pack
from repro.vfs import selector as selector_module
from repro.vfs.candidates import DesignSpaceSpec, volt_grid
from repro.vfs.homogeneous import optimum_homogeneous
from repro.vfs.selector import (
    PLAN_CACHE_SIZE,
    ConfigurationSelector,
    clear_plan_cache,
    design_space_plan,
)
from repro.workloads import build_corpus, spec_profile

#: The bundled packs that declare a machine, plus the paper machine.
PACK_MACHINES = tuple(
    sorted(
        name
        for name in bundled_pack_paths()
        if find_pack(name).machine is not None
    )
)
MACHINES = {
    **{f"pack:{name}": find_pack(name).machine for name in PACK_MACHINES},
    "paper@1": paper_machine(n_buses=1),
    "paper@2": paper_machine(n_buses=2),
}

#: The paper's design space, two fast-cluster counts, a narrowed Vdd grid.
SPECS = {
    "paper": DesignSpaceSpec.paper(),
    "n_fast=1,2": DesignSpaceSpec(n_fast_options=(1, 2)),
    "narrow-vdd": DesignSpaceSpec(
        cluster_vdd_grid=volt_grid(0.9, 1.1),
        icn_vdd_grid=volt_grid(0.9, 1.0),
        cache_vdd_grid=volt_grid(1.0, 1.2),
        homogeneous_vdd_grid=volt_grid(1.0, 1.05),
    ),
}

TECHNOLOGIES = {
    "paper": TechnologyModel(),
    "steep": TechnologyModel(alpha=1.7, subthreshold_slope=0.08),
}

#: SPEC2000 corpora whose reference-machine profiles are priced.
CORPORA = ("171.swim", "173.applu", "301.apsi", "172.mgrid")


@pytest.fixture(scope="module")
def profiles():
    """Reference-machine profiles of :data:`CORPORA`, at scale 0.02."""
    LOOP_CACHE.detach_store()
    clear_loop_cache(reset_stats=True)
    try:
        return {
            name: Experiment.paper(ExperimentOptions())
            .run(build_corpus(spec_profile(name), scale=0.02))
            .profile
            for name in CORPORA
        }
    finally:
        clear_loop_cache(reset_stats=True)


def plan_cache_size():
    """How many plans are kept now."""
    return len(selector_module._PLANS)


@pytest.fixture(autouse=True)
def cold_plans():
    """Every test starts, and leaves, with no plan kept."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def outcome(call, *args):
    """``("ok", value)`` or ``("raised", message)`` of one call."""
    try:
        return ("ok", call(*args))
    except ConfigurationError as error:
        return ("raised", str(error))


def answers(machine, technology, spec, profile, reference=None):
    """``select``, ``enumerate`` and ``optimum_homogeneous`` of one key."""
    reference = reference if reference is not None else technology.reference_setting
    units = calibrate(
        profile, reference, EnergyBreakdown.paper_baseline(), machine.n_clusters
    )
    selector = ConfigurationSelector(machine, technology, spec)
    return (
        outcome(selector.select, profile, units),
        outcome(selector.enumerate, profile, units),
        outcome(optimum_homogeneous, profile, machine, technology, units, spec),
    )


def fresh_answers(*key):
    """:func:`answers` from a cleared plan cache, as if nothing were kept."""
    clear_plan_cache()
    try:
        return answers(*key)
    finally:
        clear_plan_cache()


KEYS = [
    (machine, technology, spec)
    for machine in MACHINES
    for technology in TECHNOLOGIES
    for spec in SPECS
]

#: Pairs of keys differing in exactly one part, by the part's position.
NEIGHBOURS = {
    part: [
        (a, b)
        for a in KEYS
        for b in KEYS
        if a < b
        and a[part] != b[part]
        and all(x == y for k, (x, y) in enumerate(zip(a, b)) if k != part)
    ]
    for part in range(3)
}


def resolve(key):
    machine, technology, spec = key
    return MACHINES[machine], TECHNOLOGIES[technology], SPECS[spec]


class TestPlanOracle:
    """A kept plan answers exactly as a plan built for the call."""

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_warm_equals_fresh(self, machine, profiles):
        for technology in TECHNOLOGIES.values():
            for spec in SPECS.values():
                key = (MACHINES[machine], technology, spec)
                fresh = {
                    name: fresh_answers(*key, profile)
                    for name, profile in profiles.items()
                }
                clear_plan_cache()
                # Twice over the corpora: the second pass reads slot
                # counts every corpus of the first pass left behind.
                for _ in range(2):
                    for name, profile in profiles.items():
                        assert answers(*key, profile) == fresh[name]

    @pytest.mark.parametrize("part", (0, 1, 2), ids=("shape", "technology", "spec"))
    def test_interleaved_keys_never_share_a_plan(self, part, profiles):
        """A, B, A for keys differing in one part: each answer is its own."""
        profile = profiles["173.applu"]
        fresh = {key: fresh_answers(*resolve(key), profile) for key in KEYS}
        pairs = NEIGHBOURS[part]
        # Enough pairs answer differently for a shared plan to show.
        assert sum(fresh[a] != fresh[b] for a, b in pairs) >= len(pairs) // 3
        for a, b in pairs:
            for key in (a, b, a):
                assert answers(*resolve(key), profile) == fresh[key], key

    def test_reference_setting_is_part_of_the_key(self, profiles):
        profile = profiles["171.swim"]
        machine = MACHINES["paper@1"]
        technology = TECHNOLOGIES["paper"]
        spec = SPECS["paper"]
        references = (
            technology.reference_setting,
            DomainSetting(Fraction(4, 3), 1.0, 0.25),
            technology.reference_setting,
        )
        fresh = [
            fresh_answers(machine, technology, spec, profile, reference)
            for reference in references
        ]
        assert fresh[0] != fresh[1]
        for reference, expected in zip(references, fresh):
            assert answers(machine, technology, spec, profile, reference) == expected


@dataclass(frozen=True)
class TaggedMachine(MachineDescription):
    """A machine with one field no stage reads."""

    tag: str = ""


def tagged(machine: MachineDescription, tag: str) -> TaggedMachine:
    return TaggedMachine(
        clusters=machine.clusters,
        interconnect=machine.interconnect,
        memory=machine.memory,
        isa=machine.isa,
        tag=tag,
    )


def reshaped(machine: MachineDescription, **cluster_fields) -> MachineDescription:
    """``machine`` with every cluster's fields replaced."""
    return replace(
        machine,
        clusters=tuple(
            replace(cluster, **cluster_fields) for cluster in machine.clusters
        ),
    )


class TestPlanKey:
    """What a plan is keyed on, and how many are kept."""

    def plan(self, machine, technology=None, spec=None, reference=None):
        technology = technology if technology is not None else TechnologyModel()
        return design_space_plan(
            machine,
            technology,
            reference if reference is not None else technology.reference_setting,
            spec if spec is not None else DesignSpaceSpec.paper(),
        )

    def test_tagged_machines_share_a_plan(self):
        base = paper_machine(n_buses=1)
        first = self.plan(tagged(base, "a"))
        assert self.plan(tagged(base, "b")) is first
        assert self.plan(base) is first
        assert plan_cache_size() == 1

    @pytest.mark.parametrize("change", ("n_regs", "n_buses", "fu_mix"))
    def test_shape_changes_get_their_own_plan(self, change, profiles):
        base = paper_machine(n_buses=1)
        if change == "n_regs":
            other = reshaped(base, n_regs=8)
        elif change == "n_buses":
            other = paper_machine(n_buses=2)
        else:
            other = reshaped(base, n_int=2, n_fp=2)
        assert self.plan(other) is not self.plan(base)
        assert plan_cache_size() == 2
        # The other machine's plan answers for that machine alone.
        technology, spec = TechnologyModel(), DesignSpaceSpec.paper()
        for profile in profiles.values():
            assert answers(other, technology, spec, profile) == fresh_answers(
                other, technology, spec, profile
            )

    def test_spec_technology_and_reference_are_keys(self):
        machine = paper_machine()
        base = self.plan(machine)
        assert self.plan(machine, spec=SPECS["narrow-vdd"]) is not base
        assert self.plan(machine, technology=TECHNOLOGIES["steep"]) is not base
        assert (
            self.plan(machine, reference=DomainSetting(Fraction(4, 3), 1.0, 0.25))
            is not base
        )
        assert self.plan(machine) is base
        assert plan_cache_size() == 4

    def test_cache_stays_within_its_bound(self):
        machine = paper_machine()
        small = dict(
            fast_factors=(Fraction(1),),
            slow_over_fast=(Fraction(1), Fraction(3, 2)),
        )
        plans = []
        for step in range(PLAN_CACHE_SIZE + 5):
            spec = DesignSpaceSpec(
                cluster_vdd_grid=volt_grid(0.7, 1.2 + 0.05 * step), **small
            )
            plans.append(self.plan(machine, spec=spec))
            assert plan_cache_size() <= PLAN_CACHE_SIZE
        assert plan_cache_size() == PLAN_CACHE_SIZE
        # The least recently used plan went first; the newest are kept.
        first = DesignSpaceSpec(cluster_vdd_grid=volt_grid(0.7, 1.2), **small)
        assert self.plan(machine, spec=first) is not plans[0]
        last = DesignSpaceSpec(
            cluster_vdd_grid=volt_grid(0.7, 1.2 + 0.05 * (PLAN_CACHE_SIZE + 4)),
            **small,
        )
        assert self.plan(machine, spec=last) is plans[-1]

    def test_loop_cache_clears_keep_plans(self):
        """A plan holds no profile data, so loop-cache clears keep it."""
        machine = paper_machine()
        plan = self.plan(machine)
        clear_loop_cache(reset_stats=True)
        assert self.plan(machine) is plan


class TestConcurrentPlans:
    """Threads racing on one cold plan cache agree with a serial run."""

    def test_threads_match_serial(self, profiles):
        machine = MACHINES["paper@1"]
        technology = TECHNOLOGIES["paper"]
        spec = SPECS["n_fast=1,2"]
        corpora = sorted(profiles)
        assert len(corpora) == 4
        serial = {
            name: fresh_answers(machine, technology, spec, profiles[name])
            for name in corpora
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                clear_plan_cache()
                barrier = threading.Barrier(len(corpora), timeout=60)
                results, errors = {}, []

                def work(name):
                    try:
                        barrier.wait()
                        results[name] = answers(
                            machine, technology, spec, profiles[name]
                        )
                    except BaseException as error:  # reported below
                        errors.append(error)

                threads = [
                    threading.Thread(target=work, args=(name,)) for name in corpora
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert errors == []
                assert results == serial
                assert plan_cache_size() == 1
        finally:
            sys.setswitchinterval(interval)

    def test_racing_builds_are_harmless(self, profiles, monkeypatch):
        """Two plans built for one key: the first stored one is kept."""
        machine = MACHINES["paper@2"]
        technology = TECHNOLOGIES["steep"]
        spec = SPECS["paper"]
        reference = technology.reference_setting
        built = []
        original = selector_module.DesignSpacePlan
        gate = threading.Barrier(2, timeout=60)

        def slow_build(*args):
            plan = original(*args)
            built.append(plan)
            gate.wait()  # both threads have built before either stores
            return plan

        monkeypatch.setattr(selector_module, "DesignSpacePlan", slow_build)
        kept = []
        threads = [
            threading.Thread(
                target=lambda: kept.append(
                    design_space_plan(machine, technology, reference, spec)
                )
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(built) == 2 and built[0] is not built[1]
        assert kept[0] is kept[1]
        assert plan_cache_size() == 1
        monkeypatch.undo()
        profile = profiles["301.apsi"]
        assert answers(machine, technology, spec, profile) == fresh_answers(
            machine, technology, spec, profile
        )

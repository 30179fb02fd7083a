"""Oracles for the warm evaluation's plain-number paths.

A warm evaluation (every loop artifact a loop-cache hit) re-derives
nothing that its inputs fix:

* **Loop ITs kept with the design-space plan.**
  :meth:`SpeedsContext.loop_it` keeps each loop demand's section 3.2
  IT on the context, and the plan keeps its contexts.  Every answer,
  first or kept, must equal a fresh context's
  :meth:`~SpeedsContext.min_feasible_it` from recMIT, computed on
  Fractions; demands differing in any one part (recMII, FU needs,
  communications, lifetimes) must never share an answer; the memo
  stays within :data:`IT_MEMO_SIZE`; and an infeasible demand raises
  every time.
* **Loop keys kept.**  :func:`~repro.pipeline.cache.loop_keys` keeps
  the keys it hashed; every key, kept or not, must equal
  :func:`~repro.pipeline.cache.stage_key`'s, within its bound.
* **One energy formula.**  :func:`energy_terms` must equal the section
  3.1.3 estimate written out term by term.  The optimum-homogeneous
  baseline prices each candidate with it on plain numbers; each price
  must ``==`` :meth:`EnergyModel.scaled_estimate` of the same
  candidate, and the baseline must equal a search over estimates of
  the candidates' operating points.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleITError
from repro.ir.opcodes import COMPUTE_CLASSES
from repro.machine.fu import fu_demand
from repro.machine.machine import paper_machine
from repro.machine.operating_point import MachineSpeeds
from repro.pipeline import Experiment, ExperimentOptions, cache
from repro.power.energy import (
    EnergyModel,
    EventCounts,
    energy_terms,
    point_scalings,
    total_energy,
    uniform_distribution,
)
from repro.power.metrics import ed2
from repro.power.time_model import TimeModel
from repro.scheduler import mii
from repro.scheduler.mii import SpeedsContext, demand_codes, demand_key
from repro.vfs.homogeneous import optimum_homogeneous
from repro.vfs.selector import ConfigurationSelector, design_space_plan
from repro.workloads import build_corpus, spec_profile

#: Periods (ns) with the denominators clock settings use.
periods_st = st.builds(Fraction, st.integers(10, 60), st.sampled_from((20, 4, 3, 12)))
counts_st = st.dictionaries(
    st.sampled_from(COMPUTE_CLASSES), st.integers(0, 40), max_size=5
)
rec_st = st.builds(Fraction, st.integers(0, 40), st.integers(1, 3))


def _demand(rec, counts, comms, lifetimes):
    return (
        rec.as_integer_ratio(),
        demand_codes(fu_demand(counts)),
        comms,
        lifetimes,
    )


def fresh_it(machine, speeds, rec, counts, comms, lifetimes):
    """The section 3.2 IT from a fresh context, on Fractions, or None."""
    fastest = speeds.fastest_cluster_cycle_time
    start = rec * fastest if rec > 0 else fastest
    try:
        return SpeedsContext(machine, speeds).min_feasible_it(
            start, fu_demand(counts), comms, lifetimes
        )
    except InfeasibleITError:
        return None


def kept_it(context, demand):
    """``context.loop_it(demand)`` as a Fraction, or None if infeasible."""
    try:
        return Fraction(*context.loop_it(demand))
    except InfeasibleITError:
        return None


class TestKeptLoopITs:
    @pytest.mark.parametrize("with_comms", (False, True))
    @pytest.mark.parametrize("with_lifetimes", (False, True))
    @settings(max_examples=60, deadline=None)
    @given(
        clusters=st.lists(periods_st, min_size=4, max_size=4),
        icn=periods_st,
        buses=st.integers(1, 2),
        base=st.tuples(rec_st, counts_st, st.integers(0, 30), st.integers(0, 1500)),
        other=st.tuples(rec_st, counts_st, st.integers(0, 30), st.integers(0, 1500)),
    )
    def test_kept_equals_a_fresh_scan(
        self, with_comms, with_lifetimes, clusters, icn, buses, base, other
    ):
        """One context answers a demand and each one-part variation of it."""
        machine = paper_machine(n_buses=buses)
        speeds = MachineSpeeds(tuple(clusters), icn, icn)
        context = SpeedsContext(machine, speeds)

        def used(parts):
            rec, counts, comms, lifetimes = parts
            return (
                rec,
                counts,
                comms if with_comms else 0,
                lifetimes if with_lifetimes else 0,
            )

        base = used(base)
        other = used(other)
        variants = [base] + [
            base[:part] + (other[part],) + base[part + 1 :] for part in range(4)
        ]
        for _ in range(2):  # the second round answers from the memo
            for parts in variants:
                assert kept_it(context, _demand(*parts)) == fresh_it(
                    machine, speeds, *parts
                ), parts

    @pytest.mark.parametrize("part", range(4))
    def test_demands_differing_in_one_part_do_not_share(self, part):
        """Each part of the demand changes the IT here, so each keys it."""
        machine = paper_machine(n_buses=1)
        speeds = MachineSpeeds((Fraction(1),) * 4, Fraction(1), Fraction(1))
        base = (Fraction(2), {COMPUTE_CLASSES[0]: 4}, 1, 10)
        bigger = (Fraction(7), {COMPUTE_CLASSES[0]: 40}, 20, 900)
        variant = base[:part] + (bigger[part],) + base[part + 1 :]
        context = SpeedsContext(machine, speeds)
        first = kept_it(context, _demand(*base))
        second = kept_it(context, _demand(*variant))
        assert first == fresh_it(machine, speeds, *base)
        assert second == fresh_it(machine, speeds, *variant)
        assert first != second

    def test_memo_stays_within_its_bound(self):
        machine = paper_machine(n_buses=2)
        speeds = MachineSpeeds(
            (Fraction(1), Fraction(3, 2), Fraction(3, 2), Fraction(2)),
            Fraction(1),
            Fraction(1),
        )
        context = SpeedsContext(machine, speeds)
        counts = {COMPUTE_CLASSES[0]: 3}
        demands = [
            (Fraction(1), counts, 2, lifetimes)
            for lifetimes in range(mii.IT_MEMO_SIZE + 10)
        ]
        for parts in demands:
            context.loop_it(_demand(*parts))
            assert len(context._its) <= mii.IT_MEMO_SIZE
        assert len(context._its) == mii.IT_MEMO_SIZE
        # The oldest went first, the newest are kept; an evicted demand
        # is answered afresh, and right.
        assert demand_key(_demand(*demands[0])) not in context._its
        assert demand_key(_demand(*demands[-1])) in context._its
        for parts in (demands[0], demands[len(demands) // 2], demands[-1]):
            assert kept_it(context, _demand(*parts)) == fresh_it(
                machine, speeds, *parts
            )
        assert len(context._its) == mii.IT_MEMO_SIZE

    def test_infeasible_demands_raise_every_time(self, monkeypatch):
        machine = paper_machine(n_buses=1)
        speeds = MachineSpeeds((Fraction(1),) * 4, Fraction(1), Fraction(1))
        context = SpeedsContext(machine, speeds)
        demand = _demand(Fraction(1), {COMPUTE_CLASSES[0]: 400}, 0, 0)
        monkeypatch.setattr(mii, "MAX_CANDIDATES", 1)
        for _ in range(2):
            with pytest.raises(InfeasibleITError, match="'hard'"):
                context.loop_it(demand, "hard")
        assert demand_key(demand) not in context._its
        monkeypatch.undo()
        # Nothing was kept for it: with the full budget it is feasible.
        assert kept_it(context, demand) == fresh_it(
            machine, speeds, Fraction(1), {COMPUTE_CLASSES[0]: 400}, 0, 0
        )

    @pytest.mark.parametrize("name", ("swim", "applu", "sixtrack"))
    def test_plan_contexts_after_selection(self, name):
        """Every IT a selection left on the plan's contexts is a fresh scan's."""
        context = Experiment.paper(ExperimentOptions()).run_context(
            build_corpus(spec_profile(name), scale=0.02)
        )
        selector = ConfigurationSelector(
            context.machine, context.technology, context.options.design_space
        )
        selector.select(context.profile, context.units)
        plan = design_space_plan(
            context.machine,
            context.technology,
            context.units.reference,
            context.options.design_space,
        )
        for row, loop in zip(TimeModel.loop_rows(context.profile), context.profile):
            assert row.key == demand_key(row.demand)
            for structure in plan.structures:
                kept = structure.context._its[row.key]
                assert Fraction(*kept) == fresh_it(
                    context.machine,
                    structure.context.speeds,
                    loop.rec_mii,
                    loop.class_counts,
                    loop.comms_per_iteration,
                    loop.lifetime_cycles_per_iteration,
                ), (loop.name, structure.n_fast)


@pytest.fixture(scope="module")
def evaluated():
    """Three evaluated SPEC corpora, one and two buses."""
    contexts = []
    for name, buses in (("swim", 1), ("mgrid", 2), ("sixtrack", 1)):
        contexts.append(
            Experiment.paper(ExperimentOptions(n_buses=buses)).run_context(
                build_corpus(spec_profile(name), scale=0.02)
            )
        )
    return contexts


def written_out_terms(units, deltas, sigmas, counts, exec_time_ns):
    """The section 3.1.3 estimate as printed, component by component."""
    cluster_deltas, icn_delta, cache_delta = deltas
    cluster_sigmas, icn_sigma, cache_sigma = sigmas
    cluster_dynamic = sum(
        delta * events
        for delta, events in zip(cluster_deltas, counts.cluster_energy_units)
    )
    return (
        units.e_ins_unit * cluster_dynamic,
        (icn_delta * units.e_comm) * counts.n_comms,
        (cache_delta * units.e_access) * counts.n_mem_accesses,
        (exec_time_ns * units.static_rate_per_cluster) * sum(cluster_sigmas),
        (exec_time_ns * units.static_rate_icn) * icn_sigma,
        (exec_time_ns * units.static_rate_cache) * cache_sigma,
    )


class TestHomogeneousPrice:
    @settings(max_examples=200, deadline=None)
    @given(
        rates=st.lists(st.floats(1e-4, 10.0), min_size=6, max_size=6),
        deltas=st.lists(st.floats(0.1, 3.0), min_size=6, max_size=6),
        sigmas=st.lists(st.floats(0.01, 30.0), min_size=6, max_size=6),
        events=st.lists(st.floats(0.0, 1e7), min_size=6, max_size=6),
        exec_time_ns=st.floats(0.0, 1e9),
    )
    def test_formula_is_the_written_out_estimate(
        self, evaluated, rates, deltas, sigmas, events, exec_time_ns
    ):
        units = replace(
            evaluated[0].units,
            e_ins_unit=rates[0],
            e_comm=rates[1],
            e_access=rates[2],
            static_rate_clusters=rates[3],
            static_rate_icn=rates[4],
            static_rate_cache=rates[5],
        )
        scalings = (
            (tuple(deltas[:4]), deltas[4], deltas[5]),
            (tuple(sigmas[:4]), sigmas[4], sigmas[5]),
        )
        counts = EventCounts(tuple(events[:4]), events[4], events[5])
        terms = energy_terms(
            units,
            point_scalings(*scalings),
            counts.cluster_energy_units,
            counts.n_comms,
            counts.n_mem_accesses,
            exec_time_ns,
        )
        written = written_out_terms(units, *scalings, counts, exec_time_ns)
        assert terms == written
        estimate = EnergyModel(units, evaluated[0].technology).scaled_estimate(
            *scalings, counts, exec_time_ns
        )
        assert astuple(estimate) == written
        assert total_energy(terms) == estimate.total

    def test_each_candidate_prices_as_scaled_estimate(self, evaluated):
        for context in evaluated:
            profile, units = context.profile, context.units
            n = context.machine.n_clusters
            counts = EventCounts(
                tuple(profile.total_energy_units * p for p in uniform_distribution(n)),
                profile.total_comms,
                profile.total_mem_accesses,
            )
            model = EnergyModel(units, context.technology)
            plan = design_space_plan(
                context.machine,
                context.technology,
                units.reference,
                context.options.design_space,
            )
            priced = 0
            for _, _, cycle_time_ns, rows, scalings in plan.homogeneous:
                exec_time = profile.total_cycles * cycle_time_ns
                for (_, _, delta, sigma), scaling in zip(rows, scalings):
                    plain = total_energy(
                        energy_terms(
                            units,
                            scaling,
                            counts.cluster_energy_units,
                            counts.n_comms,
                            counts.n_mem_accesses,
                            exec_time,
                        )
                    )
                    assert plain == model.scaled_estimate(
                        ((delta,) * n, delta, delta),
                        ((sigma,) * n, sigma, sigma),
                        counts,
                        exec_time,
                    ).total
                    priced += 1
            assert priced > 10

    def test_baseline_is_the_best_scaled_estimate(self, evaluated):
        for context in evaluated:
            profile, units = context.profile, context.units
            n = context.machine.n_clusters
            spec = context.options.design_space
            counts = EventCounts(
                tuple(profile.total_energy_units * p for p in uniform_distribution(n)),
                profile.total_comms,
                profile.total_mem_accesses,
            )
            model = EnergyModel(units, context.technology)
            best = None
            for factor in spec.homogeneous_factors():
                cycle_time = factor * units.reference.cycle_time
                exec_time = profile.total_cycles * float(cycle_time)
                for vdd, vth in context.technology.thresholds(
                    cycle_time, spec.homogeneous_vdd_grid
                ):
                    point = context.reference_scheduler.point_at(cycle_time, vdd)
                    energy = model.estimate(point, counts, exec_time).total
                    score = ed2(energy, exec_time)
                    if best is None or score < best[0]:
                        best = (score, energy, exec_time, point)
            baseline = optimum_homogeneous(
                profile, context.machine, context.technology, units, spec
            )
            assert baseline == context.baseline_selection
            assert (
                baseline.estimated_ed2,
                baseline.estimated_energy,
                baseline.estimated_time_ns,
                baseline.point,
            ) == best


class TestKeptLoopKeys:
    def test_kept_keys_equal_stage_key_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(cache, "_LOOP_KEYS", {})
        monkeypatch.setattr(cache, "LOOP_KEY_MEMO_SIZE", 8)
        shared = ("isa-facet", "shape-facet", "options", None)
        key_of = cache.loop_keys("profile_loop", *shared)
        fingerprints = [f"loop-{index}" for index in range(20)]
        for _ in range(2):
            for fingerprint in fingerprints:
                assert key_of(fingerprint) == cache.stage_key(
                    "profile_loop", fingerprint, *shared
                )
                assert len(cache._LOOP_KEYS) <= 8
        other = cache.loop_keys("schedule_loop", *shared)
        assert other("loop-19") == cache.stage_key("schedule_loop", "loop-19", *shared)
        assert other("loop-19") != key_of("loop-19")


class TestConcurrentMemos:
    """Threads sharing one context and one key memo, past their bounds."""

    def test_threads_agree_with_fresh_answers(self, monkeypatch):
        monkeypatch.setattr(mii, "IT_MEMO_SIZE", 16)
        monkeypatch.setattr(cache, "_LOOP_KEYS", {})
        monkeypatch.setattr(cache, "LOOP_KEY_MEMO_SIZE", 16)
        machine = paper_machine(n_buses=2)
        speeds = MachineSpeeds(
            (Fraction(1), Fraction(5, 4), Fraction(5, 4), Fraction(3, 2)),
            Fraction(1),
            Fraction(1),
        )
        context = SpeedsContext(machine, speeds)
        demands = [
            (Fraction(rec, 2), {COMPUTE_CLASSES[0]: 3 + rec}, rec % 5, 40 * rec)
            for rec in range(40)
        ]
        expected = [fresh_it(machine, speeds, *parts) for parts in demands]
        key_of = cache.loop_keys("profile_loop", "facets", "options")
        wrong = []

        def work(offset):
            try:
                check(offset)
            except Exception as error:  # reported below, not lost in the thread
                wrong.append(("raised", repr(error)))

        def check(offset):
            for step in range(400):
                index = (offset + 7 * step) % len(demands)
                if kept_it(context, _demand(*demands[index])) != expected[index]:
                    wrong.append(("it", index))
                if key_of(f"loop-{index}") != cache.stage_key(
                    "profile_loop", f"loop-{index}", "facets", "options"
                ):
                    wrong.append(("key", index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,)) for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(context._its) <= 16
        assert len(cache._LOOP_KEYS) <= 16

"""Round-trip tests for the pipeline's JSON (de)serialization."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.machine.clocking import FrequencyPalette
from repro.pipeline import BenchmarkEvaluation, ExperimentOptions, evaluate_corpus
from repro.errors import PipelineError
from repro.machine.operating_point import DomainSetting
from repro.pipeline.serialization import evaluation_ratios, from_data, to_data
from repro.pipeline.stages import ScheduleSummary
from repro.scheduler.options import SchedulerOptions
from repro.vfs.candidates import DesignSpaceSpec
from repro.workloads import build_corpus, spec_profile


def _variant_options() -> ExperimentOptions:
    """Options with every field away from its default."""
    base = ExperimentOptions()
    return ExperimentOptions(
        n_buses=2,
        breakdown=base.breakdown.with_shares(0.15, 0.25).with_leakage(
            0.4, 0.2, 0.5
        ),
        technology=replace(base.technology, alpha=1.5, reference_vdd=1.1),
        design_space=DesignSpaceSpec(
            fast_factors=(Fraction(9, 10), Fraction(1)),
            slow_over_fast=(Fraction(1), Fraction(3, 2)),
        ),
        scheduler=SchedulerOptions(
            palette=FrequencyPalette.per_domain_uniform(4),
            sync_penalties=False,
            preplace_recurrences=False,
            ed2_refinement=False,
            budget_ratio=7,
        ),
        per_class_energy=False,
    )


class TestOptionsRoundTrip:
    def test_default_options(self):
        options = ExperimentOptions()
        rebuilt = ExperimentOptions.from_dict(options.to_dict())
        assert rebuilt == options

    def test_variant_options(self):
        options = _variant_options()
        rebuilt = ExperimentOptions.from_dict(options.to_dict())
        assert rebuilt == options

    def test_dict_is_json_safe(self):
        options = _variant_options()
        text = json.dumps(options.to_dict(), sort_keys=True)
        assert ExperimentOptions.from_dict(json.loads(text)) == options

    def test_global_palette_round_trips(self):
        options = ExperimentOptions(
            scheduler=SchedulerOptions(
                palette=FrequencyPalette.uniform(3, Fraction(1))
            )
        )
        rebuilt = ExperimentOptions.from_dict(options.to_dict())
        assert rebuilt.scheduler.palette.frequencies == (
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(1),
        )

    def test_fractions_serialize_exactly(self):
        spec = DesignSpaceSpec(fast_factors=(Fraction(19, 20),))
        rebuilt = from_data(DesignSpaceSpec, to_data(spec))
        assert rebuilt.fast_factors == (Fraction(19, 20),)
        assert isinstance(rebuilt.fast_factors[0], Fraction)


@pytest.fixture(scope="module")
def evaluation() -> BenchmarkEvaluation:
    corpus = build_corpus(spec_profile("swim"), scale=0.02)
    return evaluate_corpus(corpus)


class TestEvaluationRoundTrip:
    def test_round_trips_through_json(self, evaluation):
        text = json.dumps(evaluation.to_dict(), sort_keys=True)
        rebuilt = BenchmarkEvaluation.from_dict(json.loads(text))
        assert rebuilt.benchmark == evaluation.benchmark
        assert rebuilt.ed2_ratio == evaluation.ed2_ratio
        assert rebuilt.energy_ratio == evaluation.energy_ratio
        assert rebuilt.time_ratio == evaluation.time_ratio

    def test_dict_form_is_stable(self, evaluation):
        once = evaluation.to_dict()
        rebuilt = BenchmarkEvaluation.from_dict(once)
        assert rebuilt.to_dict() == once

    def test_selection_survives(self, evaluation):
        rebuilt = BenchmarkEvaluation.from_dict(evaluation.to_dict())
        original = evaluation.heterogeneous_selection
        restored = rebuilt.heterogeneous_selection
        assert restored.fast_factor == original.fast_factor
        assert restored.slow_ratio == original.slow_ratio
        assert restored.point == original.point

    def test_profile_class_counts_survive_enum_round_trip(self, evaluation):
        profile = evaluation.profile
        rebuilt = from_data(type(profile), to_data(profile))
        assert len(rebuilt) == len(profile)
        first, first_rebuilt = profile.loops[0], rebuilt.loops[0]
        assert first_rebuilt.class_counts == dict(first.class_counts)
        assert first_rebuilt.rec_mii == first.rec_mii
        assert isinstance(first_rebuilt.rec_mii, Fraction)


#: Every value type the codec handles, as a getter on an evaluation (or
#: a constant).
CODEC_VALUES = {
    "breakdown": lambda e: e.units.breakdown,
    "technology": lambda e: _variant_options().technology,
    "design_space": lambda e: _variant_options().design_space,
    "palette_any": lambda e: FrequencyPalette.any_frequency(),
    "palette_global": lambda e: FrequencyPalette.uniform(3, Fraction(1)),
    "palette_per_domain": lambda e: FrequencyPalette.per_domain_uniform(4),
    "scheduler_options": lambda e: _variant_options().scheduler,
    "domain_setting": lambda e: e.units.reference,
    "operating_point": lambda e: e.heterogeneous_selection.point,
    "selection": lambda e: e.heterogeneous_selection,
    "energy_estimate": lambda e: e.baseline_measured.energy,
    "measured": lambda e: e.heterogeneous_measured,
    "units": lambda e: e.units,
    "loop_profile": lambda e: e.profile.loops[0],
    "profile": lambda e: e.profile,
    "schedule_summary": lambda e: ScheduleSummary(
        it=2.0,
        it_length=10.0,
        comms_per_iteration=3,
        mem_accesses_per_iteration=4,
        energy_units=(1.5, 2.5),
    ),
    "evaluation": lambda e: e,
}


@pytest.mark.parametrize("name", ["171.swim", "189.lucas", "301.apsi"])
def test_evaluation_ratios_are_the_evaluation_properties(name):
    # Points where summing the energy dict in field order used to land
    # an ulp or two away from ``EnergyEstimate.total``: the warehouse and
    # the service must report exactly what the evaluation reports.
    evaluation = evaluate_corpus(
        build_corpus(spec_profile(name), scale=0.02), ExperimentOptions()
    )
    assert evaluation_ratios(evaluation.to_dict()) == (
        evaluation.ed2_ratio,
        evaluation.energy_ratio,
        evaluation.time_ratio,
    )


class TestCodec:
    @pytest.mark.parametrize("name", sorted(CODEC_VALUES))
    def test_round_trips_through_json(self, name, evaluation):
        value = CODEC_VALUES[name](evaluation)
        data = to_data(value)
        text = json.dumps(data, sort_keys=True)
        rebuilt = from_data(type(value), json.loads(text))
        assert rebuilt == value
        assert to_data(rebuilt) == data

    def test_fraction_field_encodes_by_declared_type(self, evaluation):
        selection = replace(evaluation.heterogeneous_selection, slow_ratio=1)
        data = to_data(selection)
        assert data["slow_ratio"] == "1"
        assert isinstance(from_data(type(selection), data).slow_ratio, Fraction)

    def test_missing_key_without_default_is_named(self):
        data = to_data(DomainSetting(cycle_time=Fraction(1), vdd=1.0, vth=0.25))
        del data["vth"]
        with pytest.raises(PipelineError, match=r"DomainSetting.*'vth'"):
            from_data(DomainSetting, data)

    def test_missing_key_with_default_takes_it(self):
        assert from_data(SchedulerOptions, {}) == SchedulerOptions()

    def test_non_dict_is_rejected(self):
        with pytest.raises(PipelineError, match="SchedulerOptions"):
            from_data(SchedulerOptions, [1, 2])

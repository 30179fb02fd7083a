"""Tests for the staged experiment API: stages, context, builder,
registries, and golden equivalence with the legacy entry points."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    Experiment,
    ExperimentOptions,
    CalibrateStage,
    ProfileStage,
    SelectStage,
    evaluate_corpus,
    paper_stages,
    register_machine,
)
from repro.pipeline.registry import (
    machine_factory,
    machine_names,
    scheduler_names,
    selector_names,
)
from repro.pipeline.stages import ScheduleSummary
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02


def _corpus(name="sixtrack", scale=SCALE):
    return build_corpus(spec_profile(name), scale=scale)


# ----------------------------------------------------------------------
# golden equivalence: the staged path reproduces the monolith bit for bit
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(SPEC2000_PROFILES))
    def test_every_benchmark_identical(self, name):
        # Analytic counts keep the full-suite sweep fast; the simulator
        # path is covered below on one benchmark.
        options = ExperimentOptions(simulate=False)
        corpus = _corpus(name)
        legacy = evaluate_corpus(corpus, options)
        staged = Experiment.paper(options).run(corpus)
        assert staged.to_dict() == legacy.to_dict()

    def test_simulated_run_identical(self):
        corpus = _corpus("swim")
        legacy = evaluate_corpus(corpus)
        staged = Experiment.paper().run(corpus)
        assert staged.to_dict() == legacy.to_dict()

    def test_two_bus_machine_identical(self):
        options = ExperimentOptions(n_buses=2, simulate=False)
        corpus = _corpus("swim")
        assert (
            Experiment.paper(options).run(corpus).to_dict()
            == evaluate_corpus(corpus, options).to_dict()
        )


# ----------------------------------------------------------------------
# the stage sequence and context
# ----------------------------------------------------------------------
class TestStages:
    def test_paper_stage_plan(self):
        names = [stage.name for stage in paper_stages()]
        assert names == [
            "profile",
            "calibrate",
            "profile",
            "calibrate",
            "baseline",
            "select",
            "schedule",
            "measure",
        ]

    def test_single_calibration_pass_composes(self):
        corpus = _corpus("swim")
        experiment = Experiment.paper(
            ExperimentOptions(simulate=False), calibration_passes=1
        )
        assert len(experiment.stages) == 6
        evaluation = experiment.run(corpus)
        assert 0.3 < evaluation.ed2_ratio < 1.2

    def test_zero_calibration_passes_rejected(self):
        with pytest.raises(PipelineError):
            paper_stages(calibration_passes=0)

    def test_run_context_exposes_artifacts(self):
        context = Experiment.paper(ExperimentOptions(simulate=False)).run_context(
            _corpus("swim")
        )
        assert context.provided() == (
            "profile",
            "reference_schedules",
            "units",
            "weights",
            "meter",
            "baseline_selection",
            "reference_measured",
            "baseline_measured",
            "heterogeneous_selection",
            "heterogeneous_schedules",
            "heterogeneous_measured",
            "evaluation",
        )
        assert context.stage_log == [
            "profile",
            "calibrate",
            "profile",
            "calibrate",
            "baseline",
            "select",
            "schedule",
            "measure",
        ]

    def test_missing_prerequisite_is_a_clear_error(self):
        experiment = Experiment.paper().with_stages(SelectStage())
        with pytest.raises(PipelineError, match="profile"):
            experiment.run(_corpus("swim"))

    def test_stage_sequence_without_measure_rejected(self):
        experiment = Experiment.paper().with_stages(
            ProfileStage(), CalibrateStage()
        )
        with pytest.raises(PipelineError, match="evaluation"):
            experiment.run(_corpus("swim"))

    def test_unknown_artifact_rejected(self):
        corpus = _corpus("swim")
        context = Experiment.paper().build_context(corpus)
        with pytest.raises(PipelineError, match="unknown artifact"):
            context.provide("nonsense", 1)
        with pytest.raises(PipelineError, match="unknown artifact"):
            context.require("nonsense")

    def test_describe_stages_rows(self):
        rows = Experiment.paper().describe_stages()
        assert rows[0]["name"] == "profile"
        assert rows[4]["name"] == "baseline"
        assert set(rows[4]) == {"name", "requires", "provides"}
        assert "units" in rows[1]["provides"]

    def test_explain_renders_plan(self):
        text = Experiment.paper().explain()
        for name in ("profile", "calibrate", "baseline", "select", "measure"):
            assert name in text
        assert "machine='paper'" in text


class TestScheduleSummary:
    def test_round_trip_and_protocol(self):
        summary = ScheduleSummary(
            it=2.0,
            it_length=10.0,
            comms_per_iteration=3,
            mem_accesses_per_iteration=4,
            energy_units=(1.5, 2.5),
        )
        again = ScheduleSummary.from_dict(summary.to_dict())
        assert again == summary
        assert again.cluster_energy_units() == (1.5, 2.5)
        assert again.execution_time(6) == 5 * 2.0 + 10.0
        # summarizing a summary is the identity
        assert ScheduleSummary.from_schedule(again) == again

    def test_matches_live_schedule(self):
        corpus = _corpus("swim")
        context = Experiment.paper().build_context(corpus)
        ProfileStage().run(context)
        loop = corpus.loops[0]
        schedule = context.reference_schedules[loop.name]
        summary = ScheduleSummary.from_schedule(schedule)
        assert summary.execution_time(loop.trip_count) == pytest.approx(
            schedule.execution_time(loop.trip_count)
        )
        assert summary.cluster_energy_units() == schedule.cluster_energy_units()


# ----------------------------------------------------------------------
# registries and pluggability
# ----------------------------------------------------------------------
def _examples_machine():
    examples = str(Path(__file__).parent.parent / "examples")
    if examples not in sys.path:
        sys.path.insert(0, examples)
    import custom_machine

    return custom_machine.build_machine()


class TestRegistries:
    def test_paper_entries_present(self):
        assert "paper" in machine_names()
        assert "paper" in selector_names()
        assert "paper" in scheduler_names()

    def test_unknown_names_fail_fast(self):
        with pytest.raises(PipelineError, match="unknown machine"):
            machine_factory("warp9")
        with pytest.raises(PipelineError, match="unknown machine"):
            Experiment.paper().with_machine("warp9")
        with pytest.raises(PipelineError, match="unknown selector"):
            Experiment.paper().with_selector("warp9")
        with pytest.raises(PipelineError, match="unknown scheduler"):
            Experiment.paper().with_scheduler("warp9")

    def test_duplicate_registration_rejected(self):
        register_machine("dup-test", lambda options: None, overwrite=True)
        with pytest.raises(PipelineError, match="already registered"):
            register_machine("dup-test", lambda options: None)
        register_machine("dup-test", lambda options: None, overwrite=True)

    def test_paper_machine_factory_honors_options(self):
        factory = machine_factory("paper")
        machine = factory(ExperimentOptions(n_buses=2, per_class_energy=False))
        assert machine.interconnect.n_buses == 2

    def test_named_selector_and_scheduler_equivalent(self):
        corpus = _corpus("swim")
        options = ExperimentOptions(simulate=False)
        base = Experiment.paper(options).run(corpus)
        named = (
            Experiment.paper(options)
            .with_selector("paper")
            .with_scheduler("paper")
            .run(corpus)
        )
        assert named.to_dict() == base.to_dict()


class TestCustomMachineEndToEnd:
    """The examples/custom_machine.py machine through the builder."""

    def test_live_description_runs_full_pipeline(self):
        from repro.workloads.corpus import Corpus

        examples = str(Path(__file__).parent.parent / "examples")
        if examples not in sys.path:
            sys.path.insert(0, examples)
        import custom_machine

        corpus = Corpus("fir", [custom_machine.build_fir_tap()])
        evaluation = (
            Experiment.paper(ExperimentOptions(simulate=False))
            .with_machine(_examples_machine())
            .run(corpus)
        )
        assert evaluation.benchmark == "fir"
        assert evaluation.reference_measured.energy.total == pytest.approx(
            1.0, rel=1e-6
        )
        assert 0.2 < evaluation.ed2_ratio < 1.5

    def test_registered_name_runs_and_serializes(self):
        from repro.workloads.corpus import Corpus

        register_machine(
            "test-dsp", lambda options: _examples_machine(), overwrite=True
        )
        examples = str(Path(__file__).parent.parent / "examples")
        if examples not in sys.path:
            sys.path.insert(0, examples)
        import custom_machine

        options = ExperimentOptions(simulate=False, machine="test-dsp")
        experiment = Experiment.paper(options)
        # the name flows into the serializable options (campaign-able)
        assert experiment.options.machine == "test-dsp"
        assert ExperimentOptions.from_dict(options.to_dict()) == options
        evaluation = experiment.run(
            Corpus("fir", [custom_machine.build_fir_tap()])
        )
        assert evaluation.heterogeneous_selection.point.clusters[0] is not None
        assert len(evaluation.units.__dict__) > 0

    def test_with_machine_name_updates_options(self):
        register_machine(
            "test-dsp2", lambda options: _examples_machine(), overwrite=True
        )
        experiment = Experiment.paper().with_machine("test-dsp2")
        assert experiment.options.machine == "test-dsp2"
        assert experiment.machine is None  # resolved via registry

    def test_custom_selector_factory_is_used(self):
        calls = []

        def selector_factory_fn(machine, technology, design_space):
            from repro.vfs.selector import ConfigurationSelector

            calls.append(machine.n_clusters)
            return ConfigurationSelector(machine, technology, design_space)

        corpus = _corpus("swim")
        evaluation = (
            Experiment.paper(ExperimentOptions(simulate=False))
            .with_selector(selector_factory_fn)
            .run(corpus)
        )
        assert calls == [4]
        assert evaluation.ed2_ratio > 0

    def test_custom_scheduler_factory_is_used(self):
        calls = []

        def scheduler_factory_fn(machine, scheduler_options):
            from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler

            calls.append(machine.n_clusters)
            return HeterogeneousModuloScheduler(machine, scheduler_options)

        corpus = _corpus("swim")
        (
            Experiment.paper(ExperimentOptions(simulate=False))
            .with_scheduler(scheduler_factory_fn)
            .run(corpus)
        )
        assert calls == [4]

    def test_custom_engine_is_not_served_the_paper_schedules(self):
        # Every engine's schedules go through the loop cache, so another
        # engine must key its artifacts apart from the paper's.
        from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler

        scheduled = []

        class CountingScheduler(HeterogeneousModuloScheduler):
            def schedule(self, loop, point, weights=None):
                scheduled.append(loop.name)
                return super().schedule(loop, point, weights=weights)

        corpus = _corpus("swim")
        options = ExperimentOptions(simulate=False)
        paper = Experiment.paper(options).run(corpus)
        custom = Experiment.paper(options).with_scheduler(CountingScheduler)
        assert custom.run(corpus).to_dict() == paper.to_dict()
        assert len(scheduled) == len(corpus.loops)
        custom.run(corpus)  # now answered from its own artifacts
        assert len(scheduled) == len(corpus.loops)


class TestLegacyWrappers:
    def test_profile_corpus_cached_is_gone(self):
        # The deprecated entry point was removed; ProfileStage is the
        # single-stage replacement and produces the same artifacts.
        import repro.pipeline

        assert not hasattr(repro.pipeline, "profile_corpus_cached")

    def test_profile_stage_replaces_the_old_helper(self):
        from repro.pipeline.context import ExperimentContext
        from repro.pipeline.stages import ProfileStage
        from repro.scheduler.homogeneous import HomogeneousModuloScheduler
        from repro.machine.machine import paper_machine
        from repro.power.technology import TechnologyModel

        corpus = _corpus("swim")
        scheduler = HomogeneousModuloScheduler(paper_machine(), TechnologyModel())
        context = ExperimentContext(
            corpus=corpus,
            machine=scheduler.machine,
            technology=scheduler.technology,
            reference_scheduler=scheduler,
        )
        ProfileStage().run(context)
        profile, schedules = context.profile, context.reference_schedules
        assert len(profile.loops) == len(corpus.loops)
        assert set(schedules) == {loop.name for loop in corpus.loops}

    def test_suite_to_dict(self):
        from repro.pipeline import evaluate_suite

        suite = evaluate_suite(
            [_corpus("swim")], ExperimentOptions(simulate=False)
        )
        data = suite.to_dict()
        assert data["mean_ed2_ratio"] == pytest.approx(suite.mean_ed2_ratio)
        assert len(data["evaluations"]) == 1
        assert data["evaluations"][0]["benchmark"] == "171.swim"

"""Tests for the experiment pipeline: the fixed stage sequence, the
context, the builder and machine resolution.  The pipeline's numbers
are pinned in test_golden.py."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    Experiment,
    ExperimentOptions,
    ProfileStage,
    paper_stages,
)
from repro.pipeline.stages import ScheduleSummary
from repro.workloads import build_corpus, spec_profile

SCALE = 0.02


def _corpus(name="sixtrack", scale=SCALE):
    return build_corpus(spec_profile(name), scale=scale)


# ----------------------------------------------------------------------
# the stage sequence and context
# ----------------------------------------------------------------------
class TestStages:
    def test_paper_stage_plan(self):
        names = [stage.name for stage in paper_stages()]
        assert [stage.name for stage in Experiment.paper().stages] == names
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

    def test_run_executes_the_paper_stages_in_order(self, monkeypatch):
        from repro.pipeline.stages import Stage

        ran = []
        run = Stage.run

        def recording_run(stage, context):
            ran.append(stage.name)
            return run(stage, context)

        monkeypatch.setattr(Stage, "run", recording_run)
        evaluation = Experiment.paper().run(_corpus("swim"))
        assert ran == [stage.name for stage in paper_stages()]
        assert evaluation.benchmark == "171.swim"

    def test_run_context_exposes_artifacts(self):
        context = Experiment.paper().run_context(_corpus("swim"))
        unset = [
            field.name
            for field in dataclasses.fields(context)
            if getattr(context, field.name) is None
        ]
        assert unset == []
        assert (
            context.evaluation.heterogeneous_measured
            is context.heterogeneous_measured
        )


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
        summary = context.reference_schedules[loop.name]
        assert isinstance(summary, ScheduleSummary)
        scheduler = context.reference_scheduler
        schedule = scheduler.schedule(loop, scheduler.reference_point())
        assert summary == ScheduleSummary.from_schedule(schedule)
        assert summary.execution_time(loop.trip_count) == pytest.approx(
            schedule.execution_time(loop.trip_count)
        )
        assert summary.cluster_energy_units() == schedule.cluster_energy_units()


    def test_warm_profile_restores_the_same_summaries(self):
        from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache

        corpus = _corpus("swim")
        experiment = Experiment.paper()
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)
        try:
            cold = experiment.build_context(corpus)
            ProfileStage().run(cold)
            assert LOOP_CACHE.stats()["misses"] == len(corpus.loops)
            warm = experiment.build_context(corpus)
            ProfileStage().run(warm)
            assert LOOP_CACHE.stats()["hits"] == len(corpus.loops)
        finally:
            clear_loop_cache(reset_stats=True)
        # A miss and a hit keep the same type and the same values.
        for context in (cold, warm):
            assert all(
                type(summary) is ScheduleSummary
                for summary in context.reference_schedules.values()
            )
        assert warm.reference_schedules == cold.reference_schedules
        assert warm.profile == cold.profile


# ----------------------------------------------------------------------
# machine resolution
# ----------------------------------------------------------------------
def _examples_machine():
    examples = str(Path(__file__).parent.parent / "examples")
    if examples not in sys.path:
        sys.path.insert(0, examples)
    import custom_machine

    return custom_machine.build_machine()


def _fir_corpus():
    _examples_machine()  # puts examples/ on the path
    import custom_machine
    from repro.workloads.corpus import Corpus

    return Corpus("fir", [custom_machine.build_fir_tap()])


class TestMachineResolution:
    def test_paper_machine_is_built_from_the_options(self):
        from repro.machine.machine import paper_machine

        options = ExperimentOptions(n_buses=2, per_class_energy=False)
        machine = Experiment.paper(options).resolve_machine()
        assert machine == paper_machine(n_buses=2, uniform_energy=True)

    def test_with_machine_takes_only_descriptions(self):
        # Names resolved in one process only; factories cannot travel.
        with pytest.raises(PipelineError, match="MachineDescription"):
            Experiment.paper().with_machine("warp9")
        with pytest.raises(PipelineError, match="MachineDescription"):
            Experiment.paper().with_machine(lambda options: None)

    def test_options_serialize_the_paper_machine_name(self):
        data = ExperimentOptions().to_dict()
        assert data["machine"] == "paper"
        assert ExperimentOptions.from_dict(data) == ExperimentOptions()

    def test_options_naming_another_machine_are_rejected(self):
        data = dict(ExperimentOptions().to_dict(), machine="warp9")
        with pytest.raises(PipelineError, match="machine_file"):
            ExperimentOptions.from_dict(data)


class TestCustomMachineEndToEnd:
    """The examples/custom_machine.py machine through the builder."""

    def test_live_description_runs_full_pipeline(self):
        evaluation = (
            Experiment.paper()
            .with_machine(_examples_machine())
            .run(_fir_corpus())
        )
        assert evaluation.benchmark == "fir"
        assert evaluation.reference_measured.energy.total == pytest.approx(
            1.0, rel=1e-6
        )
        assert 0.2 < evaluation.ed2_ratio < 1.5

    def test_exported_machine_file_runs_and_serializes(self, tmp_path):
        from repro.scenarios import machine_to_toml

        path = tmp_path / "tigersharc.toml"
        path.write_text(machine_to_toml(_examples_machine(), "tigersharc"))
        options = ExperimentOptions(machine_file=str(path))
        # the file travels in the serializable options (campaign-able)
        assert ExperimentOptions.from_dict(options.to_dict()) == options
        by_file = Experiment.paper(options).run(_fir_corpus())
        by_description = (
            Experiment.paper().with_machine(_examples_machine()).run(_fir_corpus())
        )
        assert by_file.to_dict() == by_description.to_dict()

    def test_with_machine_file_replaces_a_live_machine(self, tmp_path):
        from repro.scenarios import machine_to_toml

        path = tmp_path / "tigersharc.toml"
        path.write_text(machine_to_toml(_examples_machine(), "tigersharc"))
        experiment = (
            Experiment.paper()
            .with_machine(_examples_machine())
            .with_machine_file(str(path))
        )
        assert experiment.options.machine_file == str(path)
        assert experiment.machine is None  # resolved from the file
        assert experiment.resolve_machine() == _examples_machine()

    def test_machine_description_matches_the_paper_options(self):
        from repro.machine.machine import paper_machine

        options = ExperimentOptions(n_buses=2)
        corpus = _corpus("swim")
        by_options = Experiment.paper(options).run(corpus)
        by_description = (
            Experiment.paper(options)
            .with_machine(paper_machine(n_buses=2))
            .run(corpus)
        )
        assert by_description.to_dict() == by_options.to_dict()

    def test_live_machine_is_the_context_machine(self):
        from repro.machine.machine import paper_machine

        machine = paper_machine(n_buses=2)
        context = (
            Experiment.paper(ExperimentOptions(n_buses=2))
            .with_machine(machine)
            .build_context(_corpus("swim"))
        )
        assert context.machine is machine
        assert context.reference_scheduler.machine is context.machine


class TestLegacyWrappers:
    def test_profile_corpus_cached_is_gone(self):
        # The deprecated entry point was removed; ProfileStage is the
        # single-stage replacement and produces the same artifacts.
        import repro.pipeline

        assert not hasattr(repro.pipeline, "profile_corpus_cached")

    def test_plugin_registries_are_gone(self):
        # The selector and scheduler are fixed; only machines and
        # workloads are pluggable.
        import repro
        import repro.pipeline

        for name in (
            "register_selector",
            "register_scheduler",
            "selector_names",
            "scheduler_names",
        ):
            assert not hasattr(repro, name)
            assert not hasattr(repro.pipeline, name)
        for name in ("with_selector", "with_scheduler", "with_stages", "explain"):
            assert not hasattr(Experiment, name)

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
            options=ExperimentOptions(),
        )
        ProfileStage().run(context)
        profile, schedules = context.profile, context.reference_schedules
        assert len(profile.loops) == len(corpus.loops)
        assert set(schedules) == {loop.name for loop in corpus.loops}

    def test_suite_to_dict(self):
        from repro.pipeline import evaluate_suite

        suite = evaluate_suite([_corpus("swim")])
        data = suite.to_dict()
        assert data["mean_ed2_ratio"] == pytest.approx(suite.mean_ed2_ratio)
        assert len(data["evaluations"]) == 1
        assert data["evaluations"][0]["benchmark"] == "171.swim"

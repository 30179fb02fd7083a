"""End-to-end experiment pipeline, as composable stages.

profile (reference homogeneous) -> calibrate -> optimum homogeneous
baseline -> heterogeneous selection -> heterogeneous scheduling ->
simulation -> ED^2 vs baseline.

Two entry points:

* the staged API — :class:`Experiment` composes first-class
  :class:`Stage` objects over a typed :class:`ExperimentContext`, with
  pluggable machines/selectors/schedulers (:func:`register_machine` and
  friends) and loop-granular caching
  (:data:`~repro.pipeline.cache.LOOP_CACHE`);
* the function-shaped compatibility layer — :func:`evaluate_corpus` /
  :func:`evaluate_suite`, thin wrappers over ``Experiment.paper()``
  producing bit-identical results.
"""

from repro.pipeline.profiling import profile_corpus, profile_loop
from repro.pipeline.experiment import (
    BenchmarkEvaluation,
    ExperimentOptions,
    SuiteResult,
    evaluate_corpus,
    evaluate_suite,
)
from repro.pipeline.cache import StageCache, stage_key
from repro.pipeline.context import ARTIFACTS, ExperimentContext
from repro.pipeline.registry import (
    machine_factory,
    machine_names,
    register_machine,
    register_scheduler,
    register_selector,
    scheduler_factory,
    scheduler_names,
    selector_factory,
    selector_names,
)
from repro.pipeline.stages import (
    BaselineStage,
    CalibrateStage,
    Experiment,
    MeasureStage,
    ProfileStage,
    ScheduleStage,
    ScheduleSummary,
    SelectStage,
    Stage,
    paper_stages,
)

__all__ = [
    "profile_corpus",
    "profile_loop",
    "BenchmarkEvaluation",
    "ExperimentOptions",
    "SuiteResult",
    "evaluate_corpus",
    "evaluate_suite",
    # loop cache
    "StageCache",
    "stage_key",
    # context
    "ARTIFACTS",
    "ExperimentContext",
    # registries
    "machine_factory",
    "machine_names",
    "register_machine",
    "register_scheduler",
    "register_selector",
    "scheduler_factory",
    "scheduler_names",
    "selector_factory",
    "selector_names",
    # stages + builder
    "BaselineStage",
    "CalibrateStage",
    "Experiment",
    "MeasureStage",
    "ProfileStage",
    "ScheduleStage",
    "ScheduleSummary",
    "SelectStage",
    "Stage",
    "paper_stages",
]

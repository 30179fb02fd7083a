"""End-to-end experiment pipeline: the paper's fixed stage sequence.

profile (reference homogeneous) -> calibrate -> profile -> calibrate ->
optimum homogeneous baseline -> heterogeneous selection ->
heterogeneous scheduling -> metering -> ED^2 vs baseline.

Two entry points:

* :class:`Experiment` runs the :class:`Stage` sequence over one
  :class:`ExperimentContext` on a registered, file-declared or live
  machine (:func:`register_machine`), with loop-granular caching
  (:data:`~repro.pipeline.cache.LOOP_CACHE`);
* :func:`evaluate_corpus` / :func:`evaluate_suite` are function-shaped
  wrappers over ``Experiment.paper()``.
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
from repro.pipeline.context import ExperimentContext
from repro.pipeline.registry import (
    machine_factory,
    machine_names,
    register_machine,
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
    "ExperimentContext",
    # machine registry
    "machine_factory",
    "machine_names",
    "register_machine",
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

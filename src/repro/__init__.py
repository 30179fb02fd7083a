"""repro — a reproduction of *Heterogeneous Clustered VLIW
Microarchitectures* (Aletà, Codina, González, Kaeli — CGO 2007).

The package implements, from scratch:

* a loop IR with recurrence/criticality analyses (:mod:`repro.ir`),
* the clustered VLIW machine model with multi-clock-domain clocking
  (:mod:`repro.machine`),
* the paper's compile-time energy and execution-time models
  (:mod:`repro.power`),
* the section 3.3 voltage/frequency configuration selection
  (:mod:`repro.vfs`),
* the section 4 heterogeneous modulo scheduler built on multilevel graph
  partitioning with recurrence pre-placement and ED^2-driven refinement
  (:mod:`repro.scheduler`),
* a discrete-event multi-clock-domain simulator (:mod:`repro.sim`),
* synthetic SPECfp2000 loop corpora calibrated to the paper's Table 2
  (:mod:`repro.workloads`),
* the end-to-end experiment pipeline behind every figure: the paper's
  fixed stage sequence with a per-loop artifact cache, on any registered
  or file-declared machine (:mod:`repro.pipeline` — see
  :class:`Experiment`), plus campaign orchestration
  (:mod:`repro.campaign`), declarative TOML/JSON scenario packs for
  file-based machines and workloads (:mod:`repro.scenarios`) and
  plain-text reporting (:mod:`repro.reporting`).

Experiments::

    from repro import Experiment

    evaluation = Experiment.paper().run(corpus)   # == evaluate_corpus(corpus)
    custom = (
        Experiment.paper()
        .with_machine("my-dsp")                   # via register_machine(...)
        .run(corpus)
    )

Quick start::

    from repro import (
        DDGBuilder, OpClass, Loop, paper_machine,
        HomogeneousModuloScheduler,
    )

    b = DDGBuilder("dot")
    x, y = b.op("x", OpClass.LOAD), b.op("y", OpClass.LOAD)
    m, s = b.op("m", OpClass.FMUL), b.op("s", OpClass.FADD)
    b.flow(x, m).flow(y, m).flow(m, s).flow(s, s, distance=1)
    schedule = HomogeneousModuloScheduler(paper_machine()).schedule(
        Loop(b.build(), trip_count=256)
    )
    print(schedule)
"""

from repro.errors import (
    CalibrationError,
    ConfigurationError,
    GraphValidationError,
    InfeasibleITError,
    IRError,
    PartitionError,
    PipelineError,
    ReproError,
    ScenarioError,
    SchedulingError,
    SimulationError,
    SynchronizationError,
    TechnologyError,
    WorkloadError,
)
from repro.ir import (
    DDG,
    DDGBuilder,
    Dependence,
    DepKind,
    Loop,
    OpClass,
    Operation,
    Recurrence,
    find_recurrences,
    rec_mii,
    res_mii,
    unroll,
)
from repro.machine import (
    ClusterConfig,
    DomainSetting,
    FrequencyPalette,
    FUType,
    InstructionTable,
    InterconnectConfig,
    MachineDescription,
    MemoryConfig,
    OperatingPoint,
    paper_machine,
)
from repro.power import (
    CalibratedUnits,
    EnergyBreakdown,
    EnergyModel,
    EventCounts,
    LoopProfile,
    ProgramProfile,
    TechnologyModel,
    TimeModel,
    calibrate,
    ed2,
)
from repro.scheduler import (
    HeterogeneousModuloScheduler,
    HomogeneousModuloScheduler,
    Schedule,
    SchedulerOptions,
)
from repro.sim import LoopExecutor, MeasuredExecution, PowerMeter, SimulationResult
from repro.vfs import ConfigurationSelector, DesignSpaceSpec, optimum_homogeneous
from repro.workloads import (
    SPEC2000_PROFILES,
    Corpus,
    LoopGenerator,
    build_corpus,
    spec2000_suite,
    spec_profile,
)
from repro.pipeline import (
    BaselineStage,
    BenchmarkEvaluation,
    CalibrateStage,
    Experiment,
    ExperimentContext,
    ExperimentOptions,
    MeasureStage,
    ProfileStage,
    ScheduleStage,
    SelectStage,
    Stage,
    SuiteResult,
    evaluate_corpus,
    evaluate_suite,
    paper_stages,
    register_machine,
)
from repro.pipeline.registry import register_workload
from repro.scenarios import (
    ScenarioPack,
    find_pack,
    load_pack,
    machine_to_toml,
    pack_to_toml,
)

#: Fallback version for source-tree (PYTHONPATH=src) runs; installed
#: distributions report their package metadata instead, and the build
#: backend reads the authoritative value from ``pyproject.toml``.
__version__ = "0.5.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "IRError",
    "GraphValidationError",
    "SchedulingError",
    "InfeasibleITError",
    "SynchronizationError",
    "PartitionError",
    "ConfigurationError",
    "TechnologyError",
    "CalibrationError",
    "SimulationError",
    "WorkloadError",
    "PipelineError",
    "ScenarioError",
    # ir
    "DDG",
    "DDGBuilder",
    "Dependence",
    "DepKind",
    "Loop",
    "OpClass",
    "Operation",
    "Recurrence",
    "find_recurrences",
    "rec_mii",
    "res_mii",
    "unroll",
    # machine
    "ClusterConfig",
    "DomainSetting",
    "FrequencyPalette",
    "FUType",
    "InstructionTable",
    "InterconnectConfig",
    "MachineDescription",
    "MemoryConfig",
    "OperatingPoint",
    "paper_machine",
    # power
    "CalibratedUnits",
    "EnergyBreakdown",
    "EnergyModel",
    "EventCounts",
    "LoopProfile",
    "ProgramProfile",
    "TechnologyModel",
    "TimeModel",
    "calibrate",
    "ed2",
    # scheduler
    "HeterogeneousModuloScheduler",
    "HomogeneousModuloScheduler",
    "Schedule",
    "SchedulerOptions",
    # sim
    "LoopExecutor",
    "MeasuredExecution",
    "PowerMeter",
    "SimulationResult",
    # vfs
    "ConfigurationSelector",
    "DesignSpaceSpec",
    "optimum_homogeneous",
    # workloads
    "SPEC2000_PROFILES",
    "Corpus",
    "LoopGenerator",
    "build_corpus",
    "spec2000_suite",
    "spec_profile",
    # pipeline
    "BenchmarkEvaluation",
    "ExperimentOptions",
    "SuiteResult",
    "evaluate_corpus",
    "evaluate_suite",
    # experiment API
    "Experiment",
    "ExperimentContext",
    "Stage",
    "ProfileStage",
    "CalibrateStage",
    "BaselineStage",
    "SelectStage",
    "ScheduleStage",
    "MeasureStage",
    "paper_stages",
    "register_machine",
    "register_workload",
    # scenarios
    "ScenarioPack",
    "find_pack",
    "load_pack",
    "machine_to_toml",
    "pack_to_toml",
]

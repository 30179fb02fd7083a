"""First-class pipeline stages and the composable ``Experiment`` builder.

The paper's evaluation flow — profile on the reference homogeneous
machine, calibrate unit energies, find the optimum-homogeneous baseline,
select a heterogeneous configuration, schedule on it, simulate and meter
— used to live as one monolithic function.  Here each step is a
:class:`Stage`: a named unit declaring which context artifacts it
``requires`` and ``provides``.  The two scheduling stages (profile and
schedule) work loop by loop through the process-wide
:data:`~repro.pipeline.cache.LOOP_CACHE`, so repeated work is answered
per loop — and, when a campaign attaches its store, from disk across
processes.

Compose stages through :class:`Experiment`::

    from repro.pipeline import Experiment

    evaluation = Experiment.paper().run(corpus)            # == evaluate_corpus
    evaluation = (
        Experiment.paper()
        .with_machine("my-dsp")        # a registered machine factory
        .with_selector("paper")
        .with_scheduler("paper")
        .run(corpus)
    )

``Experiment.paper()`` reproduces the legacy ``evaluate_corpus`` exactly
(same stages, same two-pass calibration, bit-identical results); custom
machines, selectors and schedulers plug in through the registries in
:mod:`repro.pipeline.registry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import PipelineError
from repro.machine.machine import MachineDescription
from repro.pipeline import registry
from repro.machine.fingerprint import machine_facets
from repro.pipeline.cache import LOOP_CACHE, StageCache, stage_key
from repro.pipeline.context import ExperimentContext
from repro.power.calibration import calibrate
from repro.power.energy import EnergyModel, EventCounts
from repro.power.profile import ProgramProfile
from repro.scheduler.context import PartitionEnergyWeights
from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler
from repro.scheduler.homogeneous import HomogeneousModuloScheduler
from repro.sim.power_meter import MeasuredExecution, PowerMeter
from repro.telemetry import histogram, span
from repro.vfs.homogeneous import optimum_homogeneous
from repro.workloads.corpus import Corpus

#: Wall time per stage execution, labelled by stage name.
_STAGE_SECONDS = histogram(
    "repro_stage_seconds",
    "Wall time of pipeline stage executions, by stage",
)


# ----------------------------------------------------------------------
# schedule summaries (the disk-persistable slice of a reference schedule)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleSummary:
    """The timing/event-count protocol of a reference schedule.

    Homogeneous measurement only reads four quantities off a schedule;
    this summary carries exactly those, so profiling artifacts restored
    from the loop cache re-measure *bit-identically* without
    reconstructing live :class:`~repro.scheduler.schedule.Schedule`
    objects.
    """

    it: float
    it_length: float
    comms_per_iteration: int
    mem_accesses_per_iteration: int
    energy_units: Tuple[float, ...]

    @classmethod
    def from_schedule(cls, schedule) -> "ScheduleSummary":
        """Summarize a live schedule (or another summary)."""
        return cls(
            it=float(schedule.it),
            it_length=float(schedule.it_length),
            comms_per_iteration=schedule.comms_per_iteration,
            mem_accesses_per_iteration=schedule.mem_accesses_per_iteration,
            energy_units=tuple(schedule.cluster_energy_units()),
        )

    def cluster_energy_units(self) -> Tuple[float, ...]:
        """Per-cluster energy units per iteration."""
        return self.energy_units

    def execution_time(self, iterations: float) -> float:
        """``(N - 1) * IT + it_length`` — same formula as ``Schedule``."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return (iterations - 1) * self.it + self.it_length

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form."""
        return {
            "it": self.it,
            "it_length": self.it_length,
            "comms_per_iteration": self.comms_per_iteration,
            "mem_accesses_per_iteration": self.mem_accesses_per_iteration,
            "energy_units": list(self.energy_units),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScheduleSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            it=data["it"],
            it_length=data["it_length"],
            comms_per_iteration=data["comms_per_iteration"],
            mem_accesses_per_iteration=data["mem_accesses_per_iteration"],
            energy_units=tuple(data["energy_units"]),
        )


def measure_homogeneous(
    corpus: Corpus,
    schedules: Dict[str, Any],
    meter: PowerMeter,
    point,
    reference_ct,
) -> MeasuredExecution:
    """Measure a homogeneous point from the reference schedules.

    Homogeneous executions are cycle-identical across speeds: only the
    cycle time changes, so every reference schedule re-times by the ratio
    of periods — exactly, not approximately.
    """
    scale = float(point.clusters[0].cycle_time / reference_ct)
    measurements = []
    for loop in corpus.loops:
        schedule = schedules[loop.name]
        counts = EventCounts(
            cluster_energy_units=tuple(
                u * loop.trip_count * loop.weight
                for u in schedule.cluster_energy_units()
            ),
            n_comms=schedule.comms_per_iteration * loop.trip_count * loop.weight,
            n_mem_accesses=(
                schedule.mem_accesses_per_iteration * loop.trip_count * loop.weight
            ),
        )
        time_ns = schedule.execution_time(loop.trip_count) * loop.weight * scale
        energy = meter.model.estimate(point, counts, time_ns)
        measurements.append(MeasuredExecution(energy=energy, exec_time_ns=time_ns))
    return meter.measure_program(measurements)


def _weights_key(weights: Optional[PartitionEnergyWeights]) -> Optional[tuple]:
    if weights is None:
        return None
    return (
        weights.e_ins_unit,
        weights.e_comm,
        weights.static_rate_per_cluster,
        weights.static_rate_icn,
    )


# ----------------------------------------------------------------------
# the stage protocol
# ----------------------------------------------------------------------
class Stage:
    """One named step of an experiment.

    Subclasses declare ``requires``/``provides`` (artifact slots of
    :class:`~repro.pipeline.context.ExperimentContext`) and implement
    ``compute``, which installs the provided artifacts.
    """

    name: str = "stage"
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()

    def compute(self, context: ExperimentContext) -> None:
        """Compute and install this stage's artifacts."""
        raise NotImplementedError

    def run(self, context: ExperimentContext) -> ExperimentContext:
        """Check prerequisites, then compute the stage's artifacts."""
        started = time.perf_counter()
        with span(self.name):
            for artifact in self.requires:
                context.require(artifact)
            self.compute(context)
        _STAGE_SECONDS.observe(time.perf_counter() - started, stage=self.name)
        context.record(self.name)
        return context

    def describe(self) -> Dict[str, Any]:
        """Introspection row: name, requires, provides."""
        return {
            "name": self.name,
            "requires": self.requires,
            "provides": self.provides,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# concrete stages
# ----------------------------------------------------------------------
class ProfileStage(Stage):
    """Schedule every loop on the reference point (section 3's pass).

    Reads ``context.weights`` as the partition economics of this pass
    (None for the first, the calibrated weights for the second), so the
    paper's two-pass calibration is just this stage appearing twice.
    """

    name = "profile"
    provides = ("profile", "reference_schedules")

    def compute(self, context: ExperimentContext) -> None:
        """Profile loop by loop through :data:`LOOP_CACHE`.

        A hit restores ``(LoopProfile, ScheduleSummary)`` — the summary
        carries exactly what homogeneous measurement reads, so warm runs
        are bit-identical to cold (the PR 3 protocol).  A miss schedules
        the loop and keeps the *live* schedule for this run while
        memoizing the summary.
        """
        from repro.pipeline.profiling import profile_loop
        from repro.pipeline.serialization import loop_profile_to_dict

        scheduler = context.reference_scheduler
        reference = scheduler.reference_point()
        isa_fp, shape_fp = machine_facets(scheduler.machine)
        technology_key = repr(scheduler.technology)
        options_key = repr(scheduler.options)
        weights_key = _weights_key(context.weights)
        profiles = []
        schedules: Dict[str, Any] = {}
        for loop in context.corpus.loops:
            key = stage_key(
                "profile_loop",
                loop.fingerprint(),
                isa_fp,
                shape_fp,
                technology_key,
                options_key,
                weights_key,
            )
            cached = LOOP_CACHE.lookup(key, decode=self._decode_loop)
            if not StageCache.is_miss(cached):
                profile, summary = cached
                profiles.append(profile)
                schedules[loop.name] = summary
                continue
            schedule = scheduler.schedule(loop, reference, weights=context.weights)
            profile = profile_loop(loop, schedule, scheduler.machine)
            summary = ScheduleSummary.from_schedule(schedule)
            LOOP_CACHE.store(
                key,
                (profile, summary),
                payload={
                    "profile": loop_profile_to_dict(profile),
                    "schedule": summary.to_dict(),
                },
            )
            profiles.append(profile)
            schedules[loop.name] = schedule
        context.provide(
            "profile", ProgramProfile(name=context.corpus.benchmark, loops=profiles)
        )
        context.provide("reference_schedules", schedules)

    @staticmethod
    def _decode_loop(payload: Dict[str, Any]):
        from repro.pipeline.serialization import loop_profile_from_dict

        return (
            loop_profile_from_dict(payload["profile"]),
            ScheduleSummary.from_dict(payload["schedule"]),
        )


class CalibrateStage(Stage):
    """Calibrate unit energies from the prescribed baseline breakdown."""

    name = "calibrate"
    requires = ("profile",)
    provides = ("units", "weights", "meter")

    @staticmethod
    def _options(context: ExperimentContext):
        if context.options is None:
            raise PipelineError(
                "CalibrateStage needs experiment options (the energy "
                "breakdown); build the context through Experiment"
            )
        return context.options

    def compute(self, context: ExperimentContext) -> None:
        units = calibrate(
            context.require("profile"),
            context.technology.reference_setting,
            self._options(context).breakdown,
            context.machine.n_clusters,
        )
        context.provide("units", units)
        context.provide(
            "weights",
            PartitionEnergyWeights(
                e_ins_unit=units.e_ins_unit,
                e_comm=units.e_comm,
                static_rate_per_cluster=units.static_rate_per_cluster,
                static_rate_icn=units.static_rate_icn,
            ),
        )
        context.provide(
            "meter", PowerMeter(EnergyModel(units, context.technology))
        )


class BaselineStage(Stage):
    """Find and measure the optimum homogeneous baseline (section 5.1)."""

    name = "baseline"
    requires = ("profile", "units", "meter", "reference_schedules")
    provides = ("baseline_selection", "reference_measured", "baseline_measured")

    def compute(self, context: ExperimentContext) -> None:
        options = CalibrateStage._options(context)
        profile = context.require("profile")
        units = context.require("units")
        meter = context.require("meter")
        schedules = context.require("reference_schedules")
        baseline = optimum_homogeneous(
            profile,
            context.machine,
            context.technology,
            units,
            options.design_space,
        )
        reference_ct = context.technology.reference_setting.cycle_time
        context.provide("baseline_selection", baseline)
        context.provide(
            "reference_measured",
            measure_homogeneous(
                context.corpus,
                schedules,
                meter,
                context.reference_scheduler.reference_point(),
                reference_ct,
            ),
        )
        context.provide(
            "baseline_measured",
            measure_homogeneous(
                context.corpus, schedules, meter, baseline.point, reference_ct
            ),
        )


class SelectStage(Stage):
    """Pick the heterogeneous configuration with the section 3.3 models."""

    name = "select"
    requires = ("profile", "units")
    provides = ("heterogeneous_selection",)

    def compute(self, context: ExperimentContext) -> None:
        options = CalibrateStage._options(context)
        factory = context.selector_factory
        if factory is None:
            factory = registry.selector_factory(registry.PAPER)
        selector = factory(
            context.machine, context.technology, options.design_space
        )
        context.provide(
            "heterogeneous_selection",
            selector.select(context.require("profile"), context.require("units")),
        )


class ScheduleStage(Stage):
    """Schedule every loop on the selected heterogeneous point (section 4)."""

    name = "schedule"
    requires = ("heterogeneous_selection", "weights")
    provides = ("heterogeneous_schedules",)

    def compute(self, context: ExperimentContext) -> None:
        """Schedule loop by loop through :data:`LOOP_CACHE`.

        Hits restore *live* :class:`~repro.scheduler.schedule.Schedule`
        objects (measurement simulates them), reconstructed against this
        run's DDG/machine; placement/copy insertion order round-trips
        exactly, so energy sums — float addition is order-sensitive —
        stay bit-identical to the cold compute.  An engine other than
        the paper's keys its artifacts apart by its class name.
        """
        from repro.pipeline.serialization import (
            schedule_from_dict,
            schedule_to_dict,
        )

        options = CalibrateStage._options(context)
        factory = context.scheduler_factory
        if factory is None:
            factory = registry.scheduler_factory(registry.PAPER)
        scheduler = factory(context.machine, options.scheduler)
        selection = context.require("heterogeneous_selection")
        weights = context.require("weights")
        engine = type(scheduler)
        engine_key = (
            ()
            if engine is HeterogeneousModuloScheduler
            else (f"{engine.__module__}.{engine.__qualname__}",)
        )
        isa_fp, shape_fp = machine_facets(scheduler.machine)
        point_key = repr(selection.point)
        options_key = repr(scheduler.options)
        weights_key = _weights_key(weights)
        schedules: Dict[str, Any] = {}
        for loop in context.corpus.loops:
            key = stage_key(
                "schedule_loop",
                loop.fingerprint(),
                isa_fp,
                shape_fp,
                point_key,
                options_key,
                weights_key,
                *engine_key,
            )

            def decode(payload, loop=loop):
                return schedule_from_dict(
                    payload, loop.ddg, scheduler.machine
                )

            cached = LOOP_CACHE.lookup(key, decode=decode)
            if not StageCache.is_miss(cached):
                schedules[loop.name] = cached
                continue
            schedule = scheduler.schedule(loop, selection.point, weights=weights)
            LOOP_CACHE.store(key, schedule, payload=schedule_to_dict(schedule))
            schedules[loop.name] = schedule
        context.provide("heterogeneous_schedules", schedules)


class MeasureStage(Stage):
    """Simulate/meter the heterogeneous schedules and assemble the result."""

    name = "measure"
    requires = (
        "heterogeneous_schedules",
        "heterogeneous_selection",
        "baseline_selection",
        "reference_measured",
        "baseline_measured",
        "profile",
        "units",
        "meter",
    )
    provides = ("heterogeneous_measured", "evaluation")

    def compute(self, context: ExperimentContext) -> None:
        from repro.pipeline.experiment import BenchmarkEvaluation

        options = CalibrateStage._options(context)
        meter = context.require("meter")
        selection = context.require("heterogeneous_selection")
        schedules = context.require("heterogeneous_schedules")
        measurements = [
            meter.measure_loop(
                schedules[loop.name],
                selection.point,
                iterations=loop.trip_count,
                invocations=loop.weight,
                simulate=options.simulate,
            )
            for loop in context.corpus.loops
        ]
        heterogeneous_measured = meter.measure_program(measurements)
        context.provide("heterogeneous_measured", heterogeneous_measured)
        context.provide(
            "evaluation",
            BenchmarkEvaluation(
                benchmark=context.corpus.benchmark,
                profile=context.require("profile"),
                units=context.require("units"),
                baseline_selection=context.require("baseline_selection"),
                heterogeneous_selection=selection,
                reference_measured=context.require("reference_measured"),
                baseline_measured=context.require("baseline_measured"),
                heterogeneous_measured=heterogeneous_measured,
            ),
        )


def paper_stages(calibration_passes: int = 2) -> Tuple[Stage, ...]:
    """The paper's evaluation flow as a stage sequence.

    Two (profile, calibrate) rounds by default: the first pass schedules
    with default partition weights and calibrates, the second
    re-schedules with the *calibrated* weights so the baseline and
    heterogeneous runs see identical partitioning economics, then
    re-calibrates.
    """
    if calibration_passes < 1:
        raise PipelineError("at least one calibration pass is needed")
    stages: List[Stage] = []
    for _ in range(calibration_passes):
        stages.append(ProfileStage())
        stages.append(CalibrateStage())
    stages.extend(
        (BaselineStage(), SelectStage(), ScheduleStage(), MeasureStage())
    )
    return tuple(stages)


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
MachineLike = Union[str, MachineDescription, Callable]


@dataclass(frozen=True)
class Experiment:
    """A composable experiment: stages + pluggable machine/selector/scheduler.

    Immutable builder — every ``with_*`` returns a new experiment, so
    partial configurations can be shared and specialized::

        base = Experiment.paper()
        dsp = base.with_machine("my-dsp")
        fast = dsp.with_options(replace(dsp.options, simulate=False))

    ``run(corpus)`` executes the stages in order against a fresh
    :class:`~repro.pipeline.context.ExperimentContext` and returns the
    :class:`~repro.pipeline.experiment.BenchmarkEvaluation`.
    """

    options: Any = None
    stages: Tuple[Stage, ...] = field(default_factory=paper_stages)
    #: Machine override: a live description or factory.  None resolves
    #: ``options.machine`` through the registry (the serializable path).
    machine: Union[None, MachineDescription, Callable] = None
    #: Selector/scheduler overrides: a factory, or None for the
    #: registry entry named by the paper default.
    selector: Union[None, str, Callable] = None
    scheduler: Union[None, str, Callable] = None

    def __post_init__(self) -> None:
        if self.options is None:
            from repro.pipeline.experiment import ExperimentOptions

            object.__setattr__(self, "options", ExperimentOptions())

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, options=None, calibration_passes: int = 2) -> "Experiment":
        """The paper's full evaluation pipeline (see :func:`paper_stages`)."""
        return cls(options=options, stages=paper_stages(calibration_passes))

    def with_options(self, options) -> "Experiment":
        """A copy of this experiment with different options."""
        return replace(self, options=options)

    def with_stages(self, *stages: Stage) -> "Experiment":
        """A copy with an explicit stage sequence."""
        if not stages:
            raise PipelineError("an experiment needs at least one stage")
        return replace(self, stages=tuple(stages))

    def with_machine(self, machine: MachineLike) -> "Experiment":
        """Target ``machine``: a registry name (serializable — campaign
        jobs can carry it), a live :class:`MachineDescription`, or a
        ``factory(options)`` callable."""
        if isinstance(machine, str):
            registry.machine_factory(machine)  # fail fast on unknown names
            # Also drop any machine_file: it outranks the name at
            # resolution, so leaving it set would silently ignore this
            # call.
            return replace(
                self,
                options=replace(
                    self.options, machine=machine, machine_file=None
                ),
                machine=None,
            )
        if isinstance(machine, MachineDescription) or callable(machine):
            return replace(self, machine=machine)
        raise PipelineError(
            f"with_machine expects a name, MachineDescription or factory, "
            f"got {machine!r}"
        )

    def with_machine_file(self, path: str) -> "Experiment":
        """Target the machine declared in a scenario pack file.

        The serializable sibling of :meth:`with_machine`: the path lands
        in ``options.machine_file``, so campaign jobs can carry it and
        workers re-load the file themselves.  Loads (and registers) the
        pack immediately to fail fast on malformed files.
        """
        from repro.scenarios import load_machine_file

        load_machine_file(path)
        return replace(
            self,
            options=replace(self.options, machine_file=str(path)),
            machine=None,
        )

    def with_selector(self, selector: Union[str, Callable]) -> "Experiment":
        """Use a registered selector name or a selector factory."""
        if isinstance(selector, str):
            return replace(self, selector=registry.selector_factory(selector))
        if callable(selector):
            return replace(self, selector=selector)
        raise PipelineError(
            f"with_selector expects a name or factory, got {selector!r}"
        )

    def with_scheduler(self, scheduler: Union[str, Callable]) -> "Experiment":
        """Use a registered scheduler name or a scheduler factory."""
        if isinstance(scheduler, str):
            return replace(self, scheduler=registry.scheduler_factory(scheduler))
        if callable(scheduler):
            return replace(self, scheduler=scheduler)
        raise PipelineError(
            f"with_scheduler expects a name or factory, got {scheduler!r}"
        )

    # ------------------------------------------------------------------
    def resolve_machine(self) -> MachineDescription:
        """The concrete machine this experiment targets.

        Precedence: an explicit ``machine`` override (live description or
        factory) wins, then ``options.machine_file`` (a scenario pack,
        loaded and registered on resolution), then the registry entry
        named by ``options.machine``.
        """
        if isinstance(self.machine, MachineDescription):
            return self.machine
        if callable(self.machine):
            return self.machine(self.options)
        if self.options.machine_file is not None:
            from repro.scenarios import load_machine_file

            return load_machine_file(self.options.machine_file).machine
        return registry.machine_factory(self.options.machine)(self.options)

    def build_context(self, corpus: Corpus) -> ExperimentContext:
        """A fresh context with the run's inputs resolved."""
        machine = self.resolve_machine()
        technology = self.options.technology
        return ExperimentContext(
            corpus=corpus,
            machine=machine,
            technology=technology,
            reference_scheduler=HomogeneousModuloScheduler(
                machine, technology, self.options.scheduler
            ),
            options=self.options,
            selector_factory=self.selector,
            scheduler_factory=self.scheduler,
        )

    def run(self, corpus: Corpus):
        """Execute every stage in order; returns the evaluation."""
        context = self.run_context(corpus)
        if context.evaluation is None:
            raise PipelineError(
                "the stage sequence produced no evaluation (it must end "
                "with a stage providing 'evaluation', e.g. MeasureStage)"
            )
        return context.evaluation

    def run_context(self, corpus: Corpus) -> ExperimentContext:
        """Execute every stage; returns the full artifact context."""
        context = self.build_context(corpus)
        for stage in self.stages:
            stage.run(context)
        return context

    # ------------------------------------------------------------------
    def describe_stages(self) -> List[Dict[str, Any]]:
        """Introspection rows, one per stage, in execution order."""
        return [stage.describe() for stage in self.stages]

    def stage_names(self) -> Tuple[str, ...]:
        """The stage names in execution order."""
        return tuple(stage.name for stage in self.stages)

    def explain(self) -> str:
        """Human-readable stage plan (see ``--stages``/``--explain``)."""
        from repro.reporting.pipeline import stage_plan_table

        return stage_plan_table(self)

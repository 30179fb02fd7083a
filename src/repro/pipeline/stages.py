"""The paper's evaluation flow as a fixed sequence of stages.

Profile on the reference homogeneous machine and calibrate unit
energies (twice), find the optimum-homogeneous baseline, select a
heterogeneous configuration, schedule on it and meter it.  Each step is
a named :class:`Stage` that reads and sets fields of one
:class:`~repro.pipeline.context.ExperimentContext`; the name labels the
step's span and its ``repro_stage_seconds`` samples.  The two scheduling
stages (profile and schedule) work loop by loop through the process-wide
:data:`~repro.pipeline.cache.LOOP_CACHE`, so repeated work is answered
per loop — and, when a campaign attaches its store, from disk across
processes.  A loop a new frequency palette would schedule along the
same IT path as an earlier palette is answered from that palette's
artifact (see :func:`_reuse_loop`).

:class:`Experiment` runs the sequence on one machine::

    from repro.pipeline import Experiment

    evaluation = Experiment.paper().run(corpus)            # == evaluate_corpus
    evaluation = Experiment.paper().with_machine(my_dsp).run(corpus)

Only the machine and the options vary: the machine is the paper machine
(built from the options), a scenario pack file
(``options.machine_file``, which a campaign job carries) or a live
:class:`~repro.machine.machine.MachineDescription` (in-process only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.errors import PipelineError
from repro.machine.fingerprint import machine_facets
from repro.machine.machine import MachineDescription, paper_machine
from repro.machine.operating_point import OperatingPoint
from repro.pipeline.cache import LOOP_CACHE, StageCache, loop_keys, stage_key
from repro.pipeline.context import ExperimentContext
from repro.pipeline.serialization import (
    from_data,
    schedule_from_dict,
    schedule_to_dict,
    to_data,
)
from repro.power.calibration import calibrate
from repro.power.energy import EnergyModel
from repro.power.profile import LoopProfile, ProgramProfile
from repro.scheduler.context import PartitionEnergyWeights
from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler
from repro.scheduler.homogeneous import HomogeneousModuloScheduler
from repro.scheduler.ii_selection import same_search_path
from repro.sim.power_meter import LoopRun, PowerMeter
from repro.telemetry import histogram, span
from repro.vfs.homogeneous import optimum_homogeneous
from repro.vfs.selector import ConfigurationSelector
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
    """The timing/event-count protocol of a schedule.

    :func:`~repro.sim.power_meter.loop_events` only reads four
    quantities off a schedule; this summary carries exactly those,
    computed once when the schedule is built or restored.  The loop
    cache keeps one beside every profile (the reference schedule itself
    is not kept) and beside every live heterogeneous schedule, so each
    of an evaluation's three meterings — reference, optimum-homogeneous
    baseline, heterogeneous point — reads numbers instead of re-walking
    a schedule, and warm runs meter *bit-identically* to cold ones.
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


def loop_runs(corpus: Corpus, schedules: Dict[str, ScheduleSummary]) -> List[LoopRun]:
    """What :meth:`PowerMeter.measure_loops` meters of a corpus.

    Each loop's schedule summary, trip count and weight, in corpus order.
    """
    return [
        (schedules[loop.name], loop.trip_count, loop.weight) for loop in corpus.loops
    ]


def retimed(
    point: OperatingPoint, reference_ct: Fraction
) -> Tuple[OperatingPoint, float]:
    """A homogeneous ``point`` with the ratio re-timing the reference to it.

    Homogeneous executions are cycle-identical across speeds: only the
    cycle time changes, so every reference schedule re-times by the
    ratio of periods — exactly, not approximately — which
    :meth:`PowerMeter.measure_loops` applies as the point's
    ``time_scale``.
    """
    return point, float(point.clusters[0].cycle_time / reference_ct)


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
# filing loop artifacts, and reusing them across frequency palettes
# ----------------------------------------------------------------------
def _store_loop(key: str, artifact, encode) -> None:
    """Memoize ``artifact`` under ``key``; also on disk when attached."""
    LOOP_CACHE.store(
        key,
        artifact,
        payload=encode(artifact) if LOOP_CACHE.store_dir is not None else None,
    )


def _path_key(stage: str, fingerprint: str, head: tuple, options, weights_key) -> str:
    """A loop's palette-free key: its stage key with the palette None.

    Built only on a miss, so the warm path never pays for it.
    """
    free = repr(replace(options, palette=None))
    return stage_key(stage, fingerprint, *head, free, weights_key)


def _record_path(path_key: str, search, palette, artifact) -> None:
    """Record a computed artifact in the path memo (first writer keeps)."""
    LOOP_CACHE.record_path(path_key, (search.mit, search.attempts, palette, artifact))


def _reuse_loop(key: str, path_key: str, point, palette, encode):
    """The artifact another palette computed along this IT path, or None.

    The recorded search started at its MIT and succeeded at its
    ``attempts``-th candidate; when ``palette``'s candidate stream from
    that MIT has the same ITs and per-domain assignments for as many
    steps, the search would build the same artifact.  A reused artifact
    is filed under ``key`` exactly as a computed one is.
    """
    entry = LOOP_CACHE.recall_path(path_key)
    if entry is None:
        return None
    mit, attempts, source, artifact = entry
    if not same_search_path(point, mit, attempts, source, palette):
        return None
    _store_loop(key, artifact, encode)
    return artifact


# ----------------------------------------------------------------------
# the stage protocol
# ----------------------------------------------------------------------
class Stage:
    """One named step of an experiment.

    Subclasses implement ``compute``, which reads the context fields
    earlier stages set and sets this stage's own.
    """

    name: str = "stage"

    def compute(self, context: ExperimentContext) -> None:
        """Compute this stage's results into ``context``."""
        raise NotImplementedError

    def run(self, context: ExperimentContext) -> ExperimentContext:
        """Compute the stage under its span and timing histogram."""
        started = time.perf_counter()
        with span(self.name):
            self.compute(context)
        _STAGE_SECONDS.observe(time.perf_counter() - started, stage=self.name)
        return context

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

    def compute(self, context: ExperimentContext) -> None:
        """Profile loop by loop through :data:`LOOP_CACHE`.

        A hit restores ``(LoopProfile, ScheduleSummary)``.  On a miss
        the pair another frequency palette computed for the loop is
        reused when both palettes' IT searches walk the same path (see
        :func:`_reuse_loop`); otherwise the loop is scheduled, and the
        pair is memoized under its key and recorded in the path memo.
        Either way the run keeps the summary, which carries exactly what
        homogeneous measurement reads, so warm runs are bit-identical to
        cold.
        """
        from repro.pipeline.profiling import profile_loop

        scheduler = context.reference_scheduler
        reference = scheduler.reference_point()
        options = scheduler.options
        head = (*machine_facets(scheduler.machine), repr(scheduler.technology))
        weights_key = _weights_key(context.weights)
        key_of = loop_keys("profile_loop", *head, repr(options), weights_key)
        profiles = []
        schedules: Dict[str, ScheduleSummary] = {}
        for loop in context.corpus.loops:
            fingerprint = loop.fingerprint()
            key = key_of(fingerprint)

            def reuse(key=key, fingerprint=fingerprint):
                path_key = _path_key(
                    "profile_loop", fingerprint, head, options, weights_key
                )
                return _reuse_loop(
                    key, path_key, reference, options.palette, self._encode
                )

            cached = LOOP_CACHE.lookup(key, decode=self._decode_loop, reuse=reuse)
            if StageCache.is_miss(cached):
                schedule = scheduler.schedule(
                    loop, reference, weights=context.weights
                )
                cached = (
                    profile_loop(loop, schedule, scheduler.machine),
                    ScheduleSummary.from_schedule(schedule),
                )
                _store_loop(key, cached, self._encode)
                _record_path(
                    _path_key("profile_loop", fingerprint, head, options, weights_key),
                    schedule.search,
                    options.palette,
                    cached,
                )
            profile, summary = cached
            profiles.append(profile)
            schedules[loop.name] = summary
        context.profile = ProgramProfile(
            name=context.corpus.benchmark, loops=profiles
        )
        context.reference_schedules = schedules

    @staticmethod
    def _encode(artifact) -> Dict[str, Any]:
        profile, summary = artifact
        return {"profile": to_data(profile), "schedule": to_data(summary)}

    @staticmethod
    def _decode_loop(payload: Dict[str, Any]):
        return (
            from_data(LoopProfile, payload["profile"]),
            from_data(ScheduleSummary, payload["schedule"]),
        )


class CalibrateStage(Stage):
    """Calibrate unit energies from the prescribed baseline breakdown."""

    name = "calibrate"

    def compute(self, context: ExperimentContext) -> None:
        units = calibrate(
            context.profile,
            context.technology.reference_setting,
            context.options.breakdown,
            context.machine.n_clusters,
        )
        context.units = units
        context.weights = PartitionEnergyWeights(
            e_ins_unit=units.e_ins_unit,
            e_comm=units.e_comm,
            static_rate_per_cluster=units.static_rate_per_cluster,
            static_rate_icn=units.static_rate_icn,
        )
        context.meter = PowerMeter(EnergyModel(units, context.technology))


class BaselineStage(Stage):
    """Find and measure the optimum homogeneous baseline (section 5.1)."""

    name = "baseline"

    def compute(self, context: ExperimentContext) -> None:
        baseline = optimum_homogeneous(
            context.profile,
            context.machine,
            context.technology,
            context.units,
            context.options.design_space,
        )
        reference_ct = context.technology.reference_setting.cycle_time
        context.baseline_selection = baseline
        # Both homogeneous points in one walk over the reference summaries.
        context.reference_measured, context.baseline_measured = (
            context.meter.measure_loops(
                loop_runs(context.corpus, context.reference_schedules),
                retimed(context.reference_scheduler.reference_point(), reference_ct),
                retimed(baseline.point, reference_ct),
            )
        )


class SelectStage(Stage):
    """Pick the heterogeneous configuration with the section 3.3 models."""

    name = "select"

    def compute(self, context: ExperimentContext) -> None:
        selector = ConfigurationSelector(
            context.machine, context.technology, context.options.design_space
        )
        context.heterogeneous_selection = selector.select(
            context.profile, context.units
        )


class ScheduleStage(Stage):
    """Schedule every loop on the selected heterogeneous point (section 4)."""

    name = "schedule"

    def compute(self, context: ExperimentContext) -> None:
        """Schedule loop by loop through :data:`LOOP_CACHE`.

        The cache holds ``(Schedule, ScheduleSummary)`` per loop, as
        profiling holds ``(LoopProfile, ScheduleSummary)``; the disk
        payload is the schedule alone.  Hits restore *live*
        :class:`~repro.scheduler.schedule.Schedule` objects,
        reconstructed against this run's DDG/machine; placement/copy
        insertion order round-trips exactly, so energy sums — float
        addition is order-sensitive — stay bit-identical to the cold
        compute.  A schedule decoded from the disk layer is re-validated
        before it is summarized: one that is well-formed but illegal
        does not decode, so the cache counts it corrupt, evicts it and
        it is rescheduled.  As in :class:`ProfileStage`, a miss first
        tries the pair another frequency palette computed along the
        same IT path, and a computed pair is recorded in the path memo.
        """
        scheduler = HeterogeneousModuloScheduler(
            context.machine, context.options.scheduler
        )
        selection = context.heterogeneous_selection
        point = selection.point
        options = scheduler.options
        weights = context.weights
        head = (*machine_facets(scheduler.machine), repr(point))
        weights_key = _weights_key(weights)
        key_of = loop_keys("schedule_loop", *head, repr(options), weights_key)
        schedules = {}
        summaries: Dict[str, ScheduleSummary] = {}
        for loop in context.corpus.loops:
            fingerprint = loop.fingerprint()
            key = key_of(fingerprint)

            def decode(payload, loop=loop):
                schedule = schedule_from_dict(
                    payload, loop.ddg, scheduler.machine
                )
                schedule.validate()
                return schedule, ScheduleSummary.from_schedule(schedule)

            def reuse(key=key, fingerprint=fingerprint):
                path_key = _path_key(
                    "schedule_loop", fingerprint, head, options, weights_key
                )
                return _reuse_loop(
                    key, path_key, point, options.palette, self._encode
                )

            cached = LOOP_CACHE.lookup(key, decode=decode, reuse=reuse)
            if StageCache.is_miss(cached):
                schedule = scheduler.schedule(loop, point, weights=weights)
                cached = (schedule, ScheduleSummary.from_schedule(schedule))
                _store_loop(key, cached, self._encode)
                _record_path(
                    _path_key("schedule_loop", fingerprint, head, options, weights_key),
                    schedule.search,
                    options.palette,
                    cached,
                )
            schedules[loop.name], summaries[loop.name] = cached
        context.heterogeneous_schedules = schedules
        context.heterogeneous_summaries = summaries

    @staticmethod
    def _encode(artifact) -> Dict[str, Any]:
        return schedule_to_dict(artifact[0])


class MeasureStage(Stage):
    """Meter the heterogeneous schedules and assemble the result."""

    name = "measure"

    def compute(self, context: ExperimentContext) -> None:
        from repro.pipeline.experiment import BenchmarkEvaluation

        selection = context.heterogeneous_selection
        (context.heterogeneous_measured,) = context.meter.measure_loops(
            loop_runs(context.corpus, context.heterogeneous_summaries),
            (selection.point, 1.0),
        )
        context.evaluation = BenchmarkEvaluation(
            benchmark=context.corpus.benchmark,
            profile=context.profile,
            units=context.units,
            baseline_selection=context.baseline_selection,
            heterogeneous_selection=selection,
            reference_measured=context.reference_measured,
            baseline_measured=context.baseline_measured,
            heterogeneous_measured=context.heterogeneous_measured,
        )


def paper_stages() -> Tuple[Stage, ...]:
    """The paper's evaluation flow as a stage sequence.

    Two (profile, calibrate) rounds: the first pass schedules with
    default partition weights and calibrates, the second re-schedules
    with the *calibrated* weights so the baseline and heterogeneous runs
    see identical partitioning economics, then re-calibrates.
    """
    return (
        ProfileStage(),
        CalibrateStage(),
        ProfileStage(),
        CalibrateStage(),
        BaselineStage(),
        SelectStage(),
        ScheduleStage(),
        MeasureStage(),
    )


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """The paper's evaluation flow on one machine and option set.

    Immutable builder — every ``with_*`` returns a new experiment, so
    partial configurations can be shared and specialized::

        base = Experiment.paper()
        dsp = base.with_machine(my_dsp)
        two_bus = dsp.with_options(replace(dsp.options, n_buses=2))

    ``run(corpus)`` executes :attr:`stages` in order against a fresh
    :class:`~repro.pipeline.context.ExperimentContext` and returns the
    :class:`~repro.pipeline.experiment.BenchmarkEvaluation`.
    """

    options: Any = None
    #: Machine override: a live description.  None resolves
    #: ``options.machine_file``, else the paper machine (the
    #: serializable path).
    machine: Optional[MachineDescription] = None
    #: The fixed stage sequence (see :func:`paper_stages`).
    stages: ClassVar[Tuple[Stage, ...]] = paper_stages()

    def __post_init__(self) -> None:
        if self.options is None:
            from repro.pipeline.experiment import ExperimentOptions

            object.__setattr__(self, "options", ExperimentOptions())

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, options=None) -> "Experiment":
        """The paper's full evaluation pipeline (see :func:`paper_stages`)."""
        return cls(options=options)

    def with_options(self, options) -> "Experiment":
        """A copy of this experiment with different options."""
        return replace(self, options=options)

    def with_machine(self, machine: MachineDescription) -> "Experiment":
        """Target a live :class:`MachineDescription`.

        In-process only: a campaign job cannot carry it.  Export it with
        :func:`repro.scenarios.machine_to_toml` and use
        :meth:`with_machine_file` for the form a campaign can sweep.
        """
        if not isinstance(machine, MachineDescription):
            raise PipelineError(
                f"with_machine expects a MachineDescription, got {machine!r}"
            )
        return replace(self, machine=machine)

    def with_machine_file(self, path: str) -> "Experiment":
        """Target the machine declared in a scenario pack file.

        The serializable sibling of :meth:`with_machine`: the path lands
        in ``options.machine_file``, so campaign jobs can carry it and
        workers re-load the file themselves.  Loads the pack immediately
        to fail fast on malformed files.
        """
        from repro.scenarios import load_machine_file

        load_machine_file(path)
        return replace(
            self,
            options=replace(self.options, machine_file=str(path)),
            machine=None,
        )

    # ------------------------------------------------------------------
    def resolve_machine(self) -> MachineDescription:
        """The concrete machine this experiment targets.

        Precedence: an explicit ``machine`` override wins, then
        ``options.machine_file`` (a scenario pack, loaded on
        resolution), then the paper machine built from the options.
        """
        if self.machine is not None:
            return self.machine
        if self.options.machine_file is not None:
            from repro.scenarios import load_machine_file

            return load_machine_file(self.options.machine_file).machine
        return paper_machine(
            n_buses=self.options.n_buses,
            uniform_energy=not self.options.per_class_energy,
        )

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
        )

    def run(self, corpus: Corpus):
        """Execute every stage in order; returns the evaluation."""
        return self.run_context(corpus).evaluation

    def run_context(self, corpus: Corpus) -> ExperimentContext:
        """Execute every stage; returns the context holding every result."""
        context = self.build_context(corpus)
        for stage in self.stages:
            stage.run(context)
        return context

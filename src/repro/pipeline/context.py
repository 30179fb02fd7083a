"""The experiment context: a typed artifact store shared by stages.

An :class:`ExperimentContext` carries one experiment run's inputs (the
corpus, the resolved machine, the technology model, the options) and
every intermediate artifact the stages produce on the way to a
:class:`~repro.pipeline.experiment.BenchmarkEvaluation` — the profile,
the reference schedules, the calibrated units and partition weights, the
baseline and heterogeneous selections, the measurements.

Stages (:mod:`repro.pipeline.stages`) declare which artifacts they
``require`` and ``provide``; :meth:`ExperimentContext.require` turns a
missing prerequisite into a :class:`~repro.errors.PipelineError` naming
the artifact instead of an ``AttributeError`` deep inside a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import PipelineError
from repro.machine.machine import MachineDescription
from repro.power.calibration import CalibratedUnits
from repro.power.profile import ProgramProfile
from repro.power.technology import TechnologyModel
from repro.scheduler.context import PartitionEnergyWeights
from repro.scheduler.homogeneous import HomogeneousModuloScheduler
from repro.sim.power_meter import MeasuredExecution, PowerMeter
from repro.vfs.selector import SelectionResult
from repro.workloads.corpus import Corpus

#: Artifact slots stages may provide, in pipeline order.  ``provides``/
#: ``requires`` declarations and :meth:`ExperimentContext.provided` are
#: validated against this list.
ARTIFACTS: Tuple[str, ...] = (
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


@dataclass
class ExperimentContext:
    """Mutable state of one experiment run.

    The first block is the run's *inputs*, resolved once by the
    :class:`~repro.pipeline.stages.Experiment` builder; the second block
    is the *artifacts*, filled in by stages as they run.
    """

    # --- inputs -------------------------------------------------------
    corpus: Corpus
    machine: MachineDescription
    technology: TechnologyModel
    #: The reference homogeneous scheduler (profiling passes and the
    #: reference operating point both come from it).
    reference_scheduler: HomogeneousModuloScheduler
    #: Experiment options; optional so artifact-level helpers (tests
    #: driving a single stage) can run without synthesizing a full
    #: option set.
    options: Optional[Any] = None
    #: ``(machine, technology, design_space) -> selector`` — see
    #: :mod:`repro.pipeline.registry`.
    selector_factory: Optional[Any] = None
    #: ``(machine, scheduler_options) -> scheduler`` — see
    #: :mod:`repro.pipeline.registry`.
    scheduler_factory: Optional[Any] = None

    # --- artifacts ----------------------------------------------------
    profile: Optional[ProgramProfile] = None
    #: Reference schedules by loop name.  Values are live
    #: :class:`~repro.scheduler.schedule.Schedule` objects when profiled
    #: in-process, or :class:`~repro.pipeline.stages.ScheduleSummary`
    #: stand-ins when restored from the loop cache — both satisfy the
    #: timing/event-count protocol the measurement uses.
    reference_schedules: Optional[Dict[str, Any]] = None
    units: Optional[CalibratedUnits] = None
    weights: Optional[PartitionEnergyWeights] = None
    meter: Optional[PowerMeter] = None
    baseline_selection: Optional[SelectionResult] = None
    reference_measured: Optional[MeasuredExecution] = None
    baseline_measured: Optional[MeasuredExecution] = None
    heterogeneous_selection: Optional[SelectionResult] = None
    heterogeneous_schedules: Optional[Dict[str, Any]] = None
    heterogeneous_measured: Optional[MeasuredExecution] = None
    evaluation: Optional[Any] = None

    #: Stage names in execution order — the run's provenance trail.
    stage_log: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def has(self, artifact: str) -> bool:
        """True when ``artifact`` has been provided."""
        self._check_name(artifact)
        return getattr(self, artifact) is not None

    def require(self, artifact: str):
        """The artifact's value; :class:`PipelineError` when missing."""
        self._check_name(artifact)
        value = getattr(self, artifact)
        if value is None:
            raise PipelineError(
                f"stage prerequisite {artifact!r} has not been provided; "
                "run the stage that provides it first"
            )
        return value

    def provide(self, artifact: str, value) -> None:
        """Set ``artifact``; rejects unknown slot names."""
        self._check_name(artifact)
        setattr(self, artifact, value)

    def provided(self) -> Tuple[str, ...]:
        """Artifacts available so far, in pipeline order."""
        return tuple(name for name in ARTIFACTS if getattr(self, name) is not None)

    @staticmethod
    def _check_name(artifact: str) -> None:
        if artifact not in ARTIFACTS:
            raise PipelineError(
                f"unknown artifact {artifact!r}; expected one of {ARTIFACTS}"
            )

    def record(self, stage: str) -> None:
        """Append one entry to the provenance trail."""
        self.stage_log.append(stage)


# Keep the dataclass definition honest: every declared artifact slot
# must exist as a field (catches typos at import time, not run time).
_FIELD_NAMES = {f.name for f in fields(ExperimentContext)}
for _name in ARTIFACTS:
    if _name not in _FIELD_NAMES:  # pragma: no cover - import-time guard
        raise AssertionError(f"artifact {_name!r} missing from ExperimentContext")
del _FIELD_NAMES, _name

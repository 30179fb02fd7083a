"""The experiment context: the state one experiment run passes between stages.

An :class:`ExperimentContext` carries one run's inputs (the corpus, the
resolved machine, the technology model, the options) and every
intermediate result the stages produce on the way to a
:class:`~repro.pipeline.experiment.BenchmarkEvaluation` — the profile,
the reference schedules, the calibrated units and partition weights, the
baseline and heterogeneous selections, the measurements.  Each stage of
:mod:`repro.pipeline.stages` reads the fields an earlier stage set and
sets its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.machine.machine import MachineDescription
from repro.pipeline.experiment import BenchmarkEvaluation, ExperimentOptions
from repro.power.calibration import CalibratedUnits
from repro.power.profile import ProgramProfile
from repro.power.technology import TechnologyModel
from repro.scheduler.context import PartitionEnergyWeights
from repro.scheduler.homogeneous import HomogeneousModuloScheduler
from repro.scheduler.schedule import Schedule
from repro.sim.power_meter import MeasuredExecution, PowerMeter
from repro.vfs.selector import SelectionResult
from repro.workloads.corpus import Corpus

if TYPE_CHECKING:
    from repro.pipeline.stages import ScheduleSummary


@dataclass
class ExperimentContext:
    """Mutable state of one experiment run.

    The first block is the run's *inputs*, resolved once by the
    :class:`~repro.pipeline.stages.Experiment` builder; the second block
    is filled in by the stages as they run.
    """

    # --- inputs -------------------------------------------------------
    corpus: Corpus
    machine: MachineDescription
    technology: TechnologyModel
    #: The reference homogeneous scheduler (profiling passes and the
    #: reference operating point both come from it).
    reference_scheduler: HomogeneousModuloScheduler
    options: ExperimentOptions

    # --- stage results ------------------------------------------------
    profile: Optional[ProgramProfile] = None
    #: Reference schedules by loop name, as the summaries homogeneous
    #: measurement reads — the same value whether the loop was
    #: scheduled in this run or restored from the loop cache.
    reference_schedules: Optional[Dict[str, ScheduleSummary]] = None
    units: Optional[CalibratedUnits] = None
    weights: Optional[PartitionEnergyWeights] = None
    meter: Optional[PowerMeter] = None
    baseline_selection: Optional[SelectionResult] = None
    reference_measured: Optional[MeasuredExecution] = None
    baseline_measured: Optional[MeasuredExecution] = None
    heterogeneous_selection: Optional[SelectionResult] = None
    #: Live heterogeneous schedules by loop name (the oracles execute
    #: and inspect them) ...
    heterogeneous_schedules: Optional[Dict[str, Schedule]] = None
    #: ... and their summaries, which the measure stage meters.
    heterogeneous_summaries: Optional[Dict[str, ScheduleSummary]] = None
    heterogeneous_measured: Optional[MeasuredExecution] = None
    evaluation: Optional[BenchmarkEvaluation] = None


"""The full experiment: one benchmark (or the whole suite) end to end.

This is the code path behind every figure of the evaluation:

1. schedule every loop on the *reference* homogeneous machine and profile
   it (section 3's profiling pass),
2. calibrate the unit energies from the prescribed baseline breakdown,
   then repeat steps 1 and 2 with the calibrated partition weights,
3. find the *optimum homogeneous* configuration — the paper's baseline
   (section 5.1) — and measure it (homogeneous executions are
   cycle-identical, so the reference schedules re-time exactly),
4. select the heterogeneous configuration with the section 3.3 models,
5. schedule every loop on the selected point with the section 4
   algorithm and meter each schedule's energy and time analytically,
6. report heterogeneous/baseline ratios of ED^2, energy and time.

The stages that run this flow, in this fixed order, are in
:mod:`repro.pipeline.stages`; :func:`evaluate_corpus` and
:func:`evaluate_suite` are function-shaped wrappers over
``Experiment.paper().run(...)``.  This module keeps the experiment
*value types*: :class:`ExperimentOptions`, :class:`BenchmarkEvaluation`,
:class:`SuiteResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pipeline.serialization import (
    from_data,
    options_from_dict,
    options_to_dict,
    to_data,
)
from repro.power.breakdown import EnergyBreakdown
from repro.power.calibration import CalibratedUnits
from repro.power.profile import ProgramProfile
from repro.power.technology import TechnologyModel
from repro.scheduler.options import SchedulerOptions
from repro.sim.power_meter import MeasuredExecution
from repro.vfs.candidates import DesignSpaceSpec
from repro.vfs.selector import SelectionResult
from repro.workloads.corpus import Corpus


@dataclass(frozen=True)
class ExperimentOptions:
    """Knobs of one experiment run (defaults = the paper's baseline)."""

    n_buses: int = 1
    breakdown: EnergyBreakdown = field(default_factory=EnergyBreakdown.paper_baseline)
    technology: TechnologyModel = field(default_factory=TechnologyModel)
    design_space: DesignSpaceSpec = field(default_factory=DesignSpaceSpec.paper)
    scheduler: SchedulerOptions = field(default_factory=SchedulerOptions)
    #: Per-class instruction energies (False collapses Table 1 energies).
    per_class_energy: bool = True
    #: Path of a scenario pack declaring the machine (see
    #: :mod:`repro.scenarios`); None targets the paper machine, built
    #: from ``n_buses`` and ``per_class_energy``.  The file is
    #: (re-)loaded in whichever process runs the experiment.  Serialized
    #: with the pack's content fingerprint, so job keys follow the
    #: file's *content*: editing the pack's meaning invalidates caches,
    #: merely reformatting the TOML does not.
    machine_file: Optional[str] = None

    def to_dict(self) -> dict:
        """Canonical JSON-safe dict form (see pipeline.serialization)."""
        return options_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentOptions":
        """Rebuild options from :meth:`to_dict` output."""
        return options_from_dict(data)


@dataclass
class BenchmarkEvaluation:
    """Everything measured for one benchmark."""

    benchmark: str
    profile: ProgramProfile
    units: CalibratedUnits
    baseline_selection: SelectionResult
    heterogeneous_selection: SelectionResult
    reference_measured: MeasuredExecution
    baseline_measured: MeasuredExecution
    heterogeneous_measured: MeasuredExecution

    @property
    def ratios(self) -> Tuple[float, float, float]:
        """(ED^2, energy, time), heterogeneous over optimum homogeneous."""
        return self.heterogeneous_measured.ratios_to(self.baseline_measured)

    @property
    def ed2_ratio(self) -> float:
        """Heterogeneous ED^2 over optimum-homogeneous ED^2 (Figure 6)."""
        return self.ratios[0]

    @property
    def energy_ratio(self) -> float:
        """Heterogeneous energy over baseline energy."""
        return self.ratios[1]

    @property
    def time_ratio(self) -> float:
        """Heterogeneous execution time over baseline execution time."""
        return self.ratios[2]

    def to_dict(self) -> dict:
        """Canonical JSON-safe dict form (see pipeline.serialization)."""
        return to_data(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkEvaluation":
        """Rebuild an evaluation from :meth:`to_dict` output."""
        return from_data(cls, data)


@dataclass
class SuiteResult:
    """Evaluations for several benchmarks plus the mean ratio."""

    evaluations: List[BenchmarkEvaluation]

    def __iter__(self):
        return iter(self.evaluations)

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def mean_ed2_ratio(self) -> float:
        """Arithmetic mean of the per-benchmark ED^2 ratios (the paper's
        "mean" bar)."""
        if not self.evaluations:
            raise ValueError("empty suite")
        return sum(e.ed2_ratio for e in self.evaluations) / len(self.evaluations)

    def by_benchmark(self) -> Dict[str, BenchmarkEvaluation]:
        """Evaluations keyed by benchmark name."""
        return {e.benchmark: e for e in self.evaluations}

    def to_dict(self) -> dict:
        """JSON-safe dict form: per-benchmark evaluations + suite mean."""
        return {
            "evaluations": [e.to_dict() for e in self.evaluations],
            "mean_ed2_ratio": self.mean_ed2_ratio,
        }


# ----------------------------------------------------------------------
# the compatibility entry points
# ----------------------------------------------------------------------
def evaluate_corpus(
    corpus: Corpus, options: Optional[ExperimentOptions] = None
) -> BenchmarkEvaluation:
    """Run the full pipeline for one benchmark corpus.

    Equivalent to ``Experiment.paper(options).run(corpus)`` — kept as the
    stable function-shaped entry point.
    """
    from repro.pipeline.stages import Experiment

    return Experiment.paper(options).run(corpus)


def evaluate_suite(
    corpora: Sequence[Corpus], options: Optional[ExperimentOptions] = None
) -> SuiteResult:
    """Evaluate several benchmarks under one option set."""
    return SuiteResult(
        evaluations=[evaluate_corpus(corpus, options) for corpus in corpora]
    )


"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Subclasses are grouped by
subsystem (IR, scheduling, configuration selection, power modelling,
simulation, workload generation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Malformed intermediate representation (DDG, operations, loops)."""


class GraphValidationError(IRError):
    """A data dependence graph violates a structural invariant."""


class SchedulingError(ReproError):
    """The modulo scheduler could not produce a legal schedule."""


class InfeasibleITError(SchedulingError):
    """No initiation time within the search budget admits a schedule."""


class SynchronizationError(SchedulingError):
    """No supported (frequency, II) pair exists for a component at this IT.

    The paper calls this *increasing the IT due to synchronization
    problems* (section 4): with a finite frequency palette, a component may
    have no frequency that both respects its maximum frequency and yields
    an integral II for the chosen initiation time.
    """


class PartitionError(SchedulingError):
    """Graph partitioning (cluster assignment) failed."""


class ConfigurationError(ReproError):
    """An architectural or heterogeneous configuration is invalid."""


class TechnologyError(ConfigurationError):
    """A voltage/frequency point violates the technology constraints."""


class CalibrationError(ReproError):
    """The energy model could not be calibrated from the profile data."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an illegal execution."""


class WorkloadError(ReproError):
    """Workload/corpus generation was asked for something impossible."""


class PipelineError(ReproError):
    """An experiment's machine or workload cannot be resolved or
    registered (unknown or duplicate name, bad machine override)."""


class ScenarioError(ReproError):
    """A declarative scenario pack is malformed or violates a model
    invariant (unknown field, bad FU code, negative latency, ...)."""

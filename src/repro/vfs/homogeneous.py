"""The optimum homogeneous baseline (section 5.1).

Before crediting heterogeneity, the paper finds the *homogeneous*
configuration (one frequency, one supply voltage for the whole chip)
minimising estimated ED^2.  For homogeneous designs the model is exact up
to the profile: every homogeneous design executes the same schedule, so
cycle counts come straight from the profile and only the cycle time and
the delta/sigma scalings vary.

The cycle times, their voltage rows and each row's scalings do not
depend on the profile: they come from the selector's shared
design-space plan (:func:`~repro.vfs.selector.design_space_plan`), kept
per machine cluster shape, technology, reference setting and design
space, and bounded by :data:`~repro.vfs.selector.PLAN_CACHE_SIZE`
plans.  Only the profile totals are read per call, and each candidate
is priced by the one energy formula
(:func:`~repro.power.energy.energy_terms`) on plain numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.errors import ConfigurationError
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import OperatingPoint
from repro.power.calibration import CalibratedUnits
from repro.power.energy import energy_terms, total_energy, uniform_distribution
from repro.power.metrics import ed2
from repro.power.profile import ProgramProfile
from repro.power.technology import TechnologyModel
from repro.vfs.candidates import DesignSpaceSpec
from repro.vfs.selector import SelectionResult, design_space_plan


def optimum_homogeneous(
    profile: ProgramProfile,
    machine: MachineDescription,
    technology: TechnologyModel,
    units: CalibratedUnits,
    spec: Optional[DesignSpaceSpec] = None,
) -> SelectionResult:
    """The homogeneous operating point with the lowest estimated ED^2.

    Explores all cycle-time factors reachable by the heterogeneous design
    space and the voltages legal for *every* component simultaneously
    (``spec.homogeneous_vdd_grid``).  Each candidate is priced with
    :func:`~repro.power.energy.energy_terms` from its voltage row's
    scalings (plain floats, from the shared design-space plan) and the
    profile totals, read once per call — the numbers
    :meth:`EnergyModel.scaled_estimate` would give, without building an
    estimate; only the winner becomes an :class:`OperatingPoint`, with
    its one :class:`DomainSetting`.
    """
    spec = spec if spec is not None else DesignSpaceSpec.paper()
    total_cycles = profile.total_cycles
    n_clusters = machine.n_clusters
    # A point without slow clusters spreads instructions uniformly.
    cluster_energy_units = tuple(
        profile.total_energy_units * p for p in uniform_distribution(n_clusters)
    )
    n_comms = profile.total_comms
    n_mem_accesses = profile.total_mem_accesses
    plan = design_space_plan(machine, technology, units.reference, spec)

    best = None
    for factor, cycle_time, cycle_time_ns, rows, scalings in plan.homogeneous:
        exec_time = total_cycles * cycle_time_ns
        for (vdd, vth, _, _), scaling in zip(rows, scalings):
            energy = total_energy(
                energy_terms(
                    units,
                    scaling,
                    cluster_energy_units,
                    n_comms,
                    n_mem_accesses,
                    exec_time,
                )
            )
            score = ed2(energy, exec_time)
            if best is None or score < best[0]:
                best = (score, energy, exec_time, factor, cycle_time, vdd, vth)
    if best is None:
        raise ConfigurationError(
            "no feasible homogeneous configuration in the design space"
        )
    score, energy, exec_time, factor, cycle_time, vdd, vth = best
    return SelectionResult(
        point=OperatingPoint.homogeneous(n_clusters, cycle_time, vdd, vth),
        estimated_time_ns=exec_time,
        estimated_energy=energy,
        estimated_ed2=score,
        n_fast=n_clusters,
        fast_factor=factor,
        slow_ratio=Fraction(1),
    )

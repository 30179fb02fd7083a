"""Solving the unit energies of the reference machine (section 5 baseline).

The paper fixes, for the reference homogeneous machine, where the energy
goes (memory 1/3, ICN 10%, the rest clusters; leakage shares per
component) rather than quoting absolute joules.  Given those shares and
the profiled event counts, the per-event and per-second unit energies are
uniquely determined once total energy is normalised to 1.  Every result
in the paper is a *ratio* of ED^2 values, so the normalisation cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CalibrationError
from repro.machine.operating_point import DomainSetting
from repro.power.breakdown import EnergyBreakdown
from repro.power.profile import ProgramProfile


@dataclass(frozen=True)
class CalibratedUnits:
    """Unit energies of the reference machine, total normalised to 1.

    * ``e_ins_unit`` — energy of one Table 1 *energy unit* (so one
      instruction of class c costs ``e_ins_unit * energy(c)``),
    * ``e_comm`` — energy of one bus communication,
    * ``e_access`` — energy of one cache access,
    * ``static_rate_*`` — static energy per nanosecond (whole component;
      the per-cluster rate is the cluster figure divided by the cluster
      count),
    * ``reference`` — the voltage/frequency point the units refer to.
    """

    e_ins_unit: float
    e_comm: float
    e_access: float
    static_rate_clusters: float
    static_rate_icn: float
    static_rate_cache: float
    n_clusters: int
    reference: DomainSetting
    breakdown: EnergyBreakdown

    @property
    def static_rate_per_cluster(self) -> float:
        """Static energy per nanosecond of a single cluster."""
        return self.static_rate_clusters / self.n_clusters


#: A bus transfer may cost at most this many integer-add equivalents.
#: The paper's baseline assumes high bus usage ("the bus usage is very
#: high"); when a profiled corpus communicates rarely, dividing the whole
#: ICN dynamic budget by a handful of events would price one transfer at
#: hundreds of instructions.  The cap keeps the per-event energy physical
#: (moving a register value over a chip-level bus costs on the order of
#: one or two ALU operations) and reassigns the surplus to ICN static
#: consumption — the bus is clocked and leaks regardless of traffic.
COMM_ENERGY_CAP_UNITS = 1.5


def calibrate(
    profile: ProgramProfile,
    reference: DomainSetting,
    breakdown: EnergyBreakdown,
    n_clusters: int,
    total_energy: float = 1.0,
    comm_energy_cap_units: float = COMM_ENERGY_CAP_UNITS,
) -> CalibratedUnits:
    """Solve the unit energies from a program profile.

    ``reference`` is the homogeneous point the profile was collected on.
    When the profile contains no events of some kind (e.g. zero
    communications), that component's dynamic share is folded into its
    static share — the component still burns its prescribed fraction of
    the baseline energy.
    """
    exec_time_ns = profile.total_time(reference.cycle_time)
    if exec_time_ns <= 0:
        raise CalibrationError("profile has non-positive execution time")

    cluster_energy = breakdown.cluster_share * total_energy
    icn_energy = breakdown.icn_share * total_energy
    cache_energy = breakdown.cache_share * total_energy

    def split(component_energy: float, leakage: float, events: float):
        """(per-event energy, static rate per ns) for one component."""
        dynamic = component_energy * (1.0 - leakage)
        static = component_energy * leakage
        if events <= 0:
            # No dynamic events: everything the component burns is static.
            return 0.0, component_energy / exec_time_ns
        return dynamic / events, static / exec_time_ns

    e_ins_unit, static_clusters = split(
        cluster_energy, breakdown.cluster_leakage, profile.total_energy_units
    )
    total_comms = profile.total_comms
    e_comm, static_icn = split(icn_energy, breakdown.icn_leakage, total_comms)
    e_access, static_cache = split(
        cache_energy, breakdown.cache_leakage, profile.total_mem_accesses
    )

    cap = comm_energy_cap_units * e_ins_unit
    if e_comm > cap > 0:
        surplus = (e_comm - cap) * total_comms
        e_comm = cap
        static_icn += surplus / exec_time_ns
    elif total_comms <= 0 < cap:
        # The profiled corpus never communicated, so the budget split put
        # the whole ICN share into static.  A communication still costs
        # energy when one happens (heterogeneous partitions communicate);
        # price it at the cap.
        e_comm = cap

    return CalibratedUnits(
        e_ins_unit=e_ins_unit,
        e_comm=e_comm,
        e_access=e_access,
        static_rate_clusters=static_clusters,
        static_rate_icn=static_icn,
        static_rate_cache=static_cache,
        n_clusters=n_clusters,
        reference=reference,
        breakdown=breakdown,
    )

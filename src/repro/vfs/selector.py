"""Heterogeneous configuration selection (section 3.3).

The selector walks the structural design space (how many fast clusters,
how fast, how much slower the slow ones are), estimates execution time
with the section 3.2 model, and then picks per-component supply voltages.

Voltage decomposition: for fixed cycle times, total estimated energy is a
*sum of independent per-component terms* — each component contributes
``delta(Vdd) * dynamic + sigma(Vdd, Vth) * static_rate * T`` and no term
couples two components.  Minimising each component's term over its own
voltage grid therefore yields exactly the global optimum over the full
cross-product grid, at a fraction of the cost.  (A brute-force mode used
in tests verifies the equivalence.)

One ``select``/``enumerate`` call reads the profile once — the time
model's loop rows, the whole-program totals and the fast-cluster share —
and prices every voltage of a (cycle time, Vdd grid) pair once, as a
float row of a :class:`VoltageTable`; each structure then builds one
speeds context for the time model and is priced as plain numbers.
``select`` builds the :class:`DomainSetting`, :class:`OperatingPoint`
and :class:`SelectionResult` of the winning structure only
(``enumerate`` builds them for every structure).  All of it is dropped
when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import DomainSetting, MachineSpeeds, OperatingPoint
from repro.power.calibration import CalibratedUnits
from repro.power.metrics import ed2
from repro.power.profile import ProgramProfile
from repro.power.scaling import dynamic_ratio, static_ratio
from repro.power.technology import TechnologyModel
from repro.power.time_model import LoopRow, TimeModel
from repro.vfs.candidates import DesignSpaceSpec


def effective_fast_share(profile: ProgramProfile) -> float:
    """Estimated fraction of instruction energy on the fast clusters.

    Per loop, the share is the *critical-recurrence* energy fraction —
    only those instructions must run fast in steady state — blended
    towards 1 by the loop's ramp weight
    ``it_length / ((N - 1) * II + it_length)``: when a loop iterates few
    times, the pipeline fill/drain dominates and most instructions lack
    the slack to sit on slow clusters (the paper's applu observation).
    Loops are combined weighted by their share of execution time.
    """
    total_cycles = profile.total_cycles
    if total_cycles <= 0:
        return 0.5
    accumulated = 0.0
    for loop in profile.loops:
        per_entry = (
            loop.trip_count - 1
        ) * loop.ii_homogeneous + loop.cycles_per_iteration
        ramp_weight = (
            loop.cycles_per_iteration / per_entry if per_entry > 0 else 1.0
        )
        fast = loop.critical_energy_fraction
        fast += (1.0 - fast) * ramp_weight
        accumulated += fast * loop.homogeneous_cycles_total
    return min(max(accumulated / total_cycles, 0.05), 0.95)


@dataclass(frozen=True)
class SelectionResult:
    """A chosen operating point plus the estimates that selected it."""

    point: OperatingPoint
    estimated_time_ns: float
    estimated_energy: float
    estimated_ed2: float
    n_fast: int
    fast_factor: Fraction
    slow_ratio: Fraction


#: One feasible voltage of a Vdd grid: ``(vdd, vth, delta, sigma)``.
VoltageRow = Tuple[float, float, float, float]


class VoltageTable:
    """Feasible supply voltages per (cycle time, Vdd grid), for one call.

    For one speed and one grid, :meth:`__call__` lists a
    :data:`VoltageRow` per grid voltage at which
    :meth:`TechnologyModel.domain_setting` returns a setting, in grid
    order: the voltage, the setting's Vth (both from
    :meth:`TechnologyModel.thresholds`) and its ``delta`` and ``sigma``
    scalings (section 3.1, :func:`dynamic_ratio` and
    :func:`static_ratio`), computed on first use.  The rows are plain
    floats; callers build a :class:`DomainSetting` only for the rows
    they choose.  A selector call builds one table and drops it on
    return, so no row outlives the evaluation that priced it.
    """

    def __init__(self, technology: TechnologyModel, reference: DomainSetting):
        self._technology = technology
        self._reference = reference
        self._rows: Dict[
            Tuple[Fraction, Tuple[float, ...]], Tuple[VoltageRow, ...]
        ] = {}

    def __call__(
        self, cycle_time: Fraction, vdd_grid: Tuple[float, ...]
    ) -> Tuple[VoltageRow, ...]:
        key = (cycle_time, vdd_grid)
        rows = self._rows.get(key)
        if rows is None:
            technology = self._technology
            slope = technology.subthreshold_slope
            reference_vdd = self._reference.vdd
            reference_vth = self._reference.vth
            rows = self._rows[key] = tuple(
                (
                    vdd,
                    vth,
                    dynamic_ratio(vdd, reference_vdd),
                    static_ratio(vdd, vth, reference_vdd, reference_vth, slope),
                )
                for vdd, vth in technology.thresholds(cycle_time, vdd_grid)
            )
        return rows


def _setting(cycle_time: Fraction, row: VoltageRow) -> DomainSetting:
    """The :class:`DomainSetting` of one chosen voltage row."""
    vdd, vth, _, _ = row
    return DomainSetting(cycle_time=cycle_time, vdd=vdd, vth=vth)


@dataclass(frozen=True)
class _Walk:
    """What one selector call reads for every structure, read once."""

    rows: Tuple[LoopRow, ...]
    units: CalibratedUnits
    total_energy_units: float
    total_comms: float
    total_comms_heterogeneous: float
    total_mem_accesses: float
    #: Fast-cluster instruction share of a heterogeneous structure.
    fast_share: float
    voltages: VoltageTable


class _Priced(NamedTuple):
    """One feasible structure's estimates and chosen voltage rows."""

    ed2: float
    exec_time: float
    energy: float
    n_fast: int
    fast_factor: Fraction
    slow_ratio: Fraction
    fast_ct: Fraction
    slow_ct: Fraction
    fast_row: VoltageRow
    #: None when every cluster is fast.
    slow_row: Optional[VoltageRow]
    icn_row: VoltageRow
    cache_row: VoltageRow


class ConfigurationSelector:
    """Implements the section 3.3 selection heuristics.

    ``distribution`` controls the instruction-distribution assumption
    behind the energy estimate (the paper leaves ``p_Ci`` open):

    * ``"critical"`` (default) — the profiled fraction of instruction
      energy on critical recurrences runs on the fast clusters; the rest
      on the slow ones.  This captures the paper's key intuition that
      only a small subset of instructions is critical.
    * ``"half"`` — half the instructions on fast clusters, half on slow
      ones (the section 3.2 it_length assumption extended to energy).
    """

    def __init__(
        self,
        machine: MachineDescription,
        technology: TechnologyModel,
        spec: Optional[DesignSpaceSpec] = None,
        distribution: str = "critical",
    ):
        if distribution not in ("critical", "half"):
            raise ConfigurationError(
                f"unknown instruction distribution {distribution!r}"
            )
        self._machine = machine
        self._technology = technology
        self._spec = spec if spec is not None else DesignSpaceSpec.paper()
        self._distribution = distribution
        self._time_model = TimeModel(machine)

    @property
    def spec(self) -> DesignSpaceSpec:
        """The design-space grids in use."""
        return self._spec

    # ------------------------------------------------------------------
    @staticmethod
    def _best_component_voltage(
        rows: Tuple[VoltageRow, ...],
        dynamic_at_reference: float,
        static_rate: float,
        exec_time_ns: float,
    ) -> Optional[Tuple[VoltageRow, float]]:
        """Cheapest feasible voltage row for one component, and its energy."""
        best: Optional[Tuple[VoltageRow, float]] = None
        for row in rows:
            _, _, delta, sigma = row
            energy = delta * dynamic_at_reference + sigma * static_rate * exec_time_ns
            if best is None or energy < best[1]:
                best = (row, energy)
        return best

    def _price_structure(
        self,
        walk: _Walk,
        n_fast: int,
        fast_factor: Fraction,
        slow_ratio: Fraction,
    ) -> Optional[_Priced]:
        """One structure's estimates as plain numbers (None: infeasible)."""
        machine = self._machine
        n_clusters = machine.n_clusters
        if n_fast > n_clusters:
            return None
        units = walk.units
        reference_ct = units.reference.cycle_time
        fast_ct = fast_factor * reference_ct
        slow_ct = slow_ratio * fast_ct
        n_slow = n_clusters - n_fast

        speeds = MachineSpeeds(
            cluster_cycle_times=tuple(
                fast_ct if i < n_fast else slow_ct for i in range(n_clusters)
            ),
            icn_cycle_time=fast_ct,  # ICN tracks the fastest cluster (section 5)
            cache_cycle_time=fast_ct,  # so does the cache
        )
        exec_time = self._time_model.rows_time(walk.rows, speeds)

        # Instruction distribution across fast/slow cluster groups.
        total_units = walk.total_energy_units
        if n_slow == 0 or slow_ratio == 1:
            per_cluster_units = total_units / n_clusters
            fast_units, slow_units = per_cluster_units, per_cluster_units
        else:
            fast_share = walk.fast_share
            fast_units = fast_share * total_units / n_fast
            slow_units = (1.0 - fast_share) * total_units / n_slow

        per_cluster_static = units.static_rate_per_cluster
        spec = self._spec

        fast_choice = self._best_component_voltage(
            walk.voltages(fast_ct, spec.cluster_vdd_grid),
            units.e_ins_unit * fast_units,
            per_cluster_static,
            exec_time,
        )
        if fast_choice is None:
            return None
        energy = n_fast * fast_choice[1]

        slow_row = None
        if n_slow > 0:
            slow_choice = self._best_component_voltage(
                walk.voltages(slow_ct, spec.cluster_vdd_grid),
                units.e_ins_unit * slow_units,
                per_cluster_static,
                exec_time,
            )
            if slow_choice is None:
                return None
            energy += n_slow * slow_choice[1]
            slow_row = slow_choice[0]

        # A heterogeneous partition communicates more than the homogeneous
        # schedule: splitting critical recurrences from the rest turns the
        # boundary edges into bus traffic.
        if n_slow > 0 and slow_ratio != 1:
            comm_estimate = walk.total_comms_heterogeneous
        else:
            comm_estimate = walk.total_comms
        icn_choice = self._best_component_voltage(
            walk.voltages(fast_ct, spec.icn_vdd_grid),
            units.e_comm * comm_estimate,
            units.static_rate_icn,
            exec_time,
        )
        cache_choice = self._best_component_voltage(
            walk.voltages(fast_ct, spec.cache_vdd_grid),
            units.e_access * walk.total_mem_accesses,
            units.static_rate_cache,
            exec_time,
        )
        if icn_choice is None or cache_choice is None:
            return None
        energy += icn_choice[1] + cache_choice[1]
        return _Priced(
            ed2(energy, exec_time),
            exec_time,
            energy,
            n_fast,
            fast_factor,
            slow_ratio,
            fast_ct,
            slow_ct,
            fast_choice[0],
            slow_row,
            icn_choice[0],
            cache_choice[0],
        )

    def _result(self, priced: _Priced) -> SelectionResult:
        """The :class:`SelectionResult` of one priced structure."""
        fast_ct = priced.fast_ct
        fast = _setting(fast_ct, priced.fast_row)
        slow = (
            _setting(priced.slow_ct, priced.slow_row)
            if priced.slow_row is not None
            else fast
        )
        point = OperatingPoint(
            clusters=tuple(
                fast if i < priced.n_fast else slow
                for i in range(self._machine.n_clusters)
            ),
            icn=_setting(fast_ct, priced.icn_row),
            cache=_setting(fast_ct, priced.cache_row),
        )
        return SelectionResult(
            point=point,
            estimated_time_ns=priced.exec_time,
            estimated_energy=priced.energy,
            estimated_ed2=priced.ed2,
            n_fast=priced.n_fast,
            fast_factor=priced.fast_factor,
            slow_ratio=priced.slow_ratio,
        )

    def _candidates(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> Iterator[_Priced]:
        """Every feasible structure's estimates, in design-space order."""
        walk = _Walk(
            rows=self._time_model.loop_rows(profile),
            units=units,
            total_energy_units=profile.total_energy_units,
            total_comms=profile.total_comms,
            total_comms_heterogeneous=profile.total_comms_heterogeneous,
            total_mem_accesses=profile.total_mem_accesses,
            fast_share=(
                effective_fast_share(profile)
                if self._distribution == "critical"
                else 0.5
            ),
            voltages=VoltageTable(self._technology, units.reference),
        )
        for n_fast, fast_factor, slow_ratio in self._spec.structures():
            priced = self._price_structure(walk, n_fast, fast_factor, slow_ratio)
            if priced is not None:
                yield priced

    # ------------------------------------------------------------------
    def select(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> SelectionResult:
        """The operating point with the lowest *estimated* ED^2.

        Structures are compared as plain numbers; only the winner (the
        first in design-space order on a tie) becomes a
        :class:`SelectionResult`, so ``select`` equals
        ``enumerate(...)[0]``.
        """
        best: Optional[_Priced] = None
        for priced in self._candidates(profile, units):
            if best is None or priced.ed2 < best.ed2:
                best = priced
        if best is None:
            raise ConfigurationError(
                "no feasible heterogeneous configuration in the design space"
            )
        return self._result(best)

    def enumerate(
        self, profile: ProgramProfile, units: CalibratedUnits
    ) -> Tuple[SelectionResult, ...]:
        """Every feasible structure with its estimates (for exploration)."""
        return tuple(
            self._result(priced)
            for priced in sorted(
                self._candidates(profile, units), key=lambda p: p.ed2
            )
        )

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

What the walk reads that no profile changes is a
:class:`DesignSpacePlan`, kept process-wide by :func:`design_space_plan`:
per feasible structure its cycle times, one speeds context for the time
model and its fast, slow, interconnect and cache :class:`VoltageTable`
rows, plus the rows (and the scalings of each row) of each homogeneous
cycle time the section 5.1 baseline prices.  A plan is keyed on the
machine's cluster-shape facet
(:func:`~repro.machine.fingerprint.machine_facets`), the technology, the
reference setting and the :class:`DesignSpaceSpec`; the
:data:`PLAN_CACHE_SIZE` most recently used plans are kept.  The one
profile datum it keeps is each context's loop ITs: a context keeps the
slots it counted and, per loop demand
(:data:`~repro.scheduler.mii.LoopDemand`: recMII, FU needs,
communications and lifetimes, keyed by
:func:`~repro.scheduler.mii.demand_key`), the section 3.2 IT it found,
for up to :data:`~repro.scheduler.mii.IT_MEMO_SIZE` demands, as long
as the plan.  A loop's IT at a structure depends on nothing else, so
every palette, machine tag and pass that prices the same demand reads
it.

One ``select``/``enumerate`` call reads the profile once — the time
model's loop rows (built once per loop profile), the whole-program
totals and the fast-cluster share — and prices each structure of the
plan as plain numbers.  ``select`` builds the :class:`DomainSetting`,
:class:`OperatingPoint` and :class:`SelectionResult` of the winning
structure only (``enumerate`` builds them for every structure).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterator, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machine.fingerprint import machine_facets
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import DomainSetting, MachineSpeeds, OperatingPoint
from repro.power.calibration import CalibratedUnits
from repro.power.energy import PointScalings, point_scalings
from repro.power.metrics import ed2
from repro.power.profile import ProgramProfile
from repro.power.scaling import dynamic_ratio, static_ratio
from repro.power.technology import TechnologyModel
from repro.power.time_model import LoopRow, TimeModel
from repro.scheduler.mii import SpeedsContext
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
    """Feasible supply voltages per (cycle time, Vdd grid).

    For one speed and one grid, :meth:`__call__` lists a
    :data:`VoltageRow` per grid voltage at which
    :meth:`TechnologyModel.domain_setting` returns a setting, in grid
    order: the voltage, the setting's Vth (both from
    :meth:`TechnologyModel.thresholds`) and its ``delta`` and ``sigma``
    scalings (section 3.1, :func:`dynamic_ratio` and
    :func:`static_ratio`), computed on first use.  The rows are plain
    floats; callers build a :class:`DomainSetting` only for the rows
    they choose.  A table serves one technology and reference setting
    and keeps every row set it solved, keyed on (cycle time, grid).
    Each :class:`DesignSpacePlan` builds one, so its rows are bounded by
    the plan's cycle times and grids and live as long as the plan.
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


class StructurePlan(NamedTuple):
    """One structure of a design space, as far as no profile changes it."""

    n_fast: int
    n_slow: int
    fast_factor: Fraction
    slow_ratio: Fraction
    fast_ct: Fraction
    slow_ct: Fraction
    #: Slow clusters run slower than fast ones: instructions split by the
    #: fast share and communications follow the heterogeneous estimate.
    split: bool
    #: The time model's capacity test and IT scan at these speeds.
    context: SpeedsContext
    fast_rows: Tuple[VoltageRow, ...]
    #: Empty when every cluster is fast.
    slow_rows: Tuple[VoltageRow, ...]
    icn_rows: Tuple[VoltageRow, ...]
    cache_rows: Tuple[VoltageRow, ...]


class HomogeneousPlan(NamedTuple):
    """One cycle time of the section 5.1 homogeneous baseline."""

    factor: Fraction
    cycle_time: Fraction
    #: ``float(cycle_time)``.
    cycle_time_ns: float
    rows: Tuple[VoltageRow, ...]
    #: Per row, the homogeneous point's scalings as
    #: :func:`~repro.power.energy.energy_terms` reads them: every
    #: cluster, the interconnect and the cache at the row's voltage.
    scalings: Tuple[PointScalings, ...]


def _homogeneous_scalings(n_clusters: int, row: VoltageRow) -> PointScalings:
    """The scalings of every component at one homogeneous voltage row."""
    _, _, delta, sigma = row
    return point_scalings(
        ((delta,) * n_clusters, delta, delta), ((sigma,) * n_clusters, sigma, sigma)
    )


class DesignSpacePlan:
    """What the selector and the baseline read that no profile changes.

    Built for one machine's cluster shape, one technology, one reference
    setting and one :class:`DesignSpaceSpec`: :attr:`structures` lists
    every structure with ``n_fast`` at most the machine's cluster count,
    in design-space order, and :attr:`homogeneous` every homogeneous
    cycle-time factor, in ascending order.  Both read their voltage rows
    from one :class:`VoltageTable`.  :func:`design_space_plan` shares
    plans across calls.
    """

    def __init__(
        self,
        machine: MachineDescription,
        technology: TechnologyModel,
        reference: DomainSetting,
        spec: DesignSpaceSpec,
    ):
        voltages = VoltageTable(technology, reference)
        time_model = TimeModel(machine)
        n_clusters = machine.n_clusters
        reference_ct = reference.cycle_time
        structures = []
        for n_fast, fast_factor, slow_ratio in spec.structures():
            if n_fast > n_clusters:
                continue
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
            structures.append(
                StructurePlan(
                    n_fast=n_fast,
                    n_slow=n_slow,
                    fast_factor=fast_factor,
                    slow_ratio=slow_ratio,
                    fast_ct=fast_ct,
                    slow_ct=slow_ct,
                    split=n_slow > 0 and slow_ratio != 1,
                    context=time_model.speeds_context(speeds),
                    fast_rows=voltages(fast_ct, spec.cluster_vdd_grid),
                    slow_rows=(
                        voltages(slow_ct, spec.cluster_vdd_grid) if n_slow else ()
                    ),
                    icn_rows=voltages(fast_ct, spec.icn_vdd_grid),
                    cache_rows=voltages(fast_ct, spec.cache_vdd_grid),
                )
            )
        self.structures: Tuple[StructurePlan, ...] = tuple(structures)
        self.homogeneous: Tuple[HomogeneousPlan, ...] = tuple(
            HomogeneousPlan(
                factor,
                cycle_time,
                float(cycle_time),
                rows,
                tuple(_homogeneous_scalings(n_clusters, row) for row in rows),
            )
            for factor in spec.homogeneous_factors()
            for cycle_time in (factor * reference_ct,)
            for rows in (voltages(cycle_time, spec.homogeneous_vdd_grid),)
        )


#: Design-space plans kept per process, least recently used dropped
#: first.  A sweep prices a handful of (machine shape, technology,
#: design space) combinations; a plan of the paper's design space holds
#: 20 structures and their slot counts.
PLAN_CACHE_SIZE = 32

_PLANS: "OrderedDict[Hashable, DesignSpacePlan]" = OrderedDict()
_PLANS_LOCK = threading.Lock()


def design_space_plan(
    machine: MachineDescription,
    technology: TechnologyModel,
    reference: DomainSetting,
    spec: DesignSpaceSpec,
) -> DesignSpacePlan:
    """The shared :class:`DesignSpacePlan` of these inputs.

    Keyed on ``machine``'s cluster-shape facet — everything a speeds
    context reads of a machine (FU mixes, register files, bus count) —
    so machines differing elsewhere share a plan.  Threads racing on a
    new key may each build it; the first one stored is kept and the
    others are equal.
    """
    key = (machine_facets(machine)[1], technology, reference, spec)
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
    built = DesignSpacePlan(machine, technology, reference, spec)
    with _PLANS_LOCK:
        plan = _PLANS.setdefault(key, built)
        _PLANS.move_to_end(key)
        while len(_PLANS) > PLAN_CACHE_SIZE:
            _PLANS.popitem(last=False)
    return plan


def clear_plan_cache() -> None:
    """Drop every kept design-space plan."""
    with _PLANS_LOCK:
        _PLANS.clear()


def _setting(cycle_time: Fraction, row: VoltageRow) -> DomainSetting:
    """The :class:`DomainSetting` of one chosen voltage row."""
    vdd, vth, _, _ = row
    return DomainSetting(cycle_time=cycle_time, vdd=vdd, vth=vth)


@dataclass(frozen=True)
class _Walk:
    """What one selector call reads of the profile, read once."""

    rows: Tuple[LoopRow, ...]
    units: CalibratedUnits
    total_energy_units: float
    total_comms: float
    total_comms_heterogeneous: float
    total_mem_accesses: float
    #: Fast-cluster instruction share of a heterogeneous structure.
    fast_share: float


class _Priced(NamedTuple):
    """One feasible structure's estimates and chosen voltage rows."""

    ed2: float
    exec_time: float
    energy: float
    structure: StructurePlan
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
        self, walk: _Walk, structure: StructurePlan
    ) -> Optional[_Priced]:
        """One structure's estimates as plain numbers (None: infeasible)."""
        exec_time = self._time_model.context_time(walk.rows, structure.context)

        # Instruction distribution across fast/slow cluster groups.  A
        # heterogeneous partition communicates more than the homogeneous
        # schedule: splitting critical recurrences from the rest turns
        # the boundary edges into bus traffic.
        total_units = walk.total_energy_units
        n_fast, n_slow = structure.n_fast, structure.n_slow
        if structure.split:
            fast_share = walk.fast_share
            fast_units = fast_share * total_units / n_fast
            slow_units = (1.0 - fast_share) * total_units / n_slow
            comm_estimate = walk.total_comms_heterogeneous
        else:
            fast_units = slow_units = total_units / (n_fast + n_slow)
            comm_estimate = walk.total_comms

        units = walk.units
        per_cluster_static = units.static_rate_per_cluster
        best_voltage = self._best_component_voltage
        fast_choice = best_voltage(
            structure.fast_rows,
            units.e_ins_unit * fast_units,
            per_cluster_static,
            exec_time,
        )
        if fast_choice is None:
            return None
        energy = n_fast * fast_choice[1]

        slow_row = None
        if n_slow > 0:
            slow_choice = best_voltage(
                structure.slow_rows,
                units.e_ins_unit * slow_units,
                per_cluster_static,
                exec_time,
            )
            if slow_choice is None:
                return None
            energy += n_slow * slow_choice[1]
            slow_row = slow_choice[0]

        icn_choice = best_voltage(
            structure.icn_rows,
            units.e_comm * comm_estimate,
            units.static_rate_icn,
            exec_time,
        )
        cache_choice = best_voltage(
            structure.cache_rows,
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
            structure,
            fast_choice[0],
            slow_row,
            icn_choice[0],
            cache_choice[0],
        )

    def _result(self, priced: _Priced) -> SelectionResult:
        """The :class:`SelectionResult` of one priced structure."""
        structure = priced.structure
        fast_ct = structure.fast_ct
        fast = _setting(fast_ct, priced.fast_row)
        slow = (
            _setting(structure.slow_ct, priced.slow_row)
            if priced.slow_row is not None
            else fast
        )
        point = OperatingPoint(
            clusters=tuple(
                fast if i < structure.n_fast else slow
                for i in range(structure.n_fast + structure.n_slow)
            ),
            icn=_setting(fast_ct, priced.icn_row),
            cache=_setting(fast_ct, priced.cache_row),
        )
        return SelectionResult(
            point=point,
            estimated_time_ns=priced.exec_time,
            estimated_energy=priced.energy,
            estimated_ed2=priced.ed2,
            n_fast=structure.n_fast,
            fast_factor=structure.fast_factor,
            slow_ratio=structure.slow_ratio,
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
        )
        plan = design_space_plan(
            self._machine, self._technology, units.reference, self._spec
        )
        for structure in plan.structures:
            priced = self._price_structure(walk, structure)
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

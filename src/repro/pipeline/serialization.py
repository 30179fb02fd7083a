"""JSON-safe (de)serialization of the pipeline's value types.

The campaign subsystem persists every experiment result on disk and
addresses jobs by a content hash of their options, so
:class:`~repro.pipeline.experiment.ExperimentOptions` and
:class:`~repro.pipeline.experiment.BenchmarkEvaluation` — and every value
type nested inside them — need exact, canonical dict representations.

Conventions:

* exact rationals (:class:`fractions.Fraction`) serialize as strings
  (``"9/10"``) and round-trip through :func:`repro.units.as_fraction`,
* enums serialize by value (``OpClass.FADD`` -> ``"fadd"``),
* every ``*_to_dict`` emits only JSON-native types (dict/list/str/
  int/float/bool/None), so ``json.dumps(..., sort_keys=True)`` of the
  result is canonical and hashable.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict

from repro.ir.opcodes import OpClass
from repro.machine.clocking import FrequencyPalette
from repro.machine.operating_point import DomainSetting, OperatingPoint
from repro.power.breakdown import EnergyBreakdown
from repro.power.calibration import CalibratedUnits
from repro.power.energy import EnergyEstimate
from repro.power.profile import LoopProfile, ProgramProfile
from repro.power.technology import TechnologyModel
from repro.scheduler.options import SchedulerOptions
from repro.sim.power_meter import MeasuredExecution
from repro.units import as_fraction
from repro.vfs.candidates import DesignSpaceSpec
from repro.vfs.selector import SelectionResult


def _fraction_str(value) -> str:
    return str(as_fraction(value))


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def canonical_json(data: Any) -> str:
    """The canonical serialized form of a JSON-safe value.

    Sorted keys, no whitespace: two structurally equal values always
    produce the same bytes, so hashes of this form are content
    addresses.  Everything in the repo that derives an identity from a
    dict — campaign job keys, service job ids, warehouse fingerprints —
    goes through here.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_key(data: Any, length: int = 16) -> str:
    """Hex content address of a JSON-safe value (sha256 prefix)."""
    digest = hashlib.sha256(canonical_json(data).encode()).hexdigest()
    return digest[:length]


def evaluation_ratios(evaluation: Dict[str, Any]) -> tuple:
    """(ed2, energy, time) ratios straight from an evaluation dict.

    Mirrors :class:`~repro.pipeline.experiment.BenchmarkEvaluation`'s
    properties without rebuilding the full object graph — the warehouse
    ingests thousands of payloads and the service summarises every
    completion, and each needs only these three numbers.
    """
    het = evaluation["heterogeneous_measured"]
    base = evaluation["baseline_measured"]
    het_energy = float(sum(het["energy"].values()))
    base_energy = float(sum(base["energy"].values()))
    het_time = float(het["exec_time_ns"])
    base_time = float(base["exec_time_ns"])
    return (
        (het_energy * het_time**2) / (base_energy * base_time**2),
        het_energy / base_energy,
        het_time / base_time,
    )


# ----------------------------------------------------------------------
# machine / technology / design space
# ----------------------------------------------------------------------
def breakdown_to_dict(breakdown: EnergyBreakdown) -> Dict[str, Any]:
    return {
        "icn_share": breakdown.icn_share,
        "cache_share": breakdown.cache_share,
        "cluster_leakage": breakdown.cluster_leakage,
        "icn_leakage": breakdown.icn_leakage,
        "cache_leakage": breakdown.cache_leakage,
    }


def breakdown_from_dict(data: Dict[str, Any]) -> EnergyBreakdown:
    return EnergyBreakdown(**data)


def technology_to_dict(technology: TechnologyModel) -> Dict[str, Any]:
    return {
        "alpha": technology.alpha,
        "subthreshold_slope": technology.subthreshold_slope,
        "reference_frequency": technology.reference_frequency,
        "reference_vdd": technology.reference_vdd,
        "reference_vth": technology.reference_vth,
        "vth_margin": technology.vth_margin,
    }


def technology_from_dict(data: Dict[str, Any]) -> TechnologyModel:
    return TechnologyModel(**data)


def design_space_to_dict(spec: DesignSpaceSpec) -> Dict[str, Any]:
    return {
        "fast_factors": [_fraction_str(f) for f in spec.fast_factors],
        "slow_over_fast": [_fraction_str(r) for r in spec.slow_over_fast],
        "n_fast_options": list(spec.n_fast_options),
        "cluster_vdd_grid": list(spec.cluster_vdd_grid),
        "icn_vdd_grid": list(spec.icn_vdd_grid),
        "cache_vdd_grid": list(spec.cache_vdd_grid),
        "homogeneous_vdd_grid": list(spec.homogeneous_vdd_grid),
    }


def design_space_from_dict(data: Dict[str, Any]) -> DesignSpaceSpec:
    return DesignSpaceSpec(
        fast_factors=tuple(Fraction(f) for f in data["fast_factors"]),
        slow_over_fast=tuple(Fraction(r) for r in data["slow_over_fast"]),
        n_fast_options=tuple(data["n_fast_options"]),
        cluster_vdd_grid=tuple(data["cluster_vdd_grid"]),
        icn_vdd_grid=tuple(data["icn_vdd_grid"]),
        cache_vdd_grid=tuple(data["cache_vdd_grid"]),
        homogeneous_vdd_grid=tuple(data["homogeneous_vdd_grid"]),
    )


def palette_to_dict(palette: FrequencyPalette) -> Dict[str, Any]:
    return {
        "frequencies": (
            None
            if palette.frequencies is None
            else [_fraction_str(f) for f in palette.frequencies]
        ),
        "per_domain_size": palette.per_domain_size,
    }


def palette_from_dict(data: Dict[str, Any]) -> FrequencyPalette:
    frequencies = data["frequencies"]
    return FrequencyPalette(
        frequencies=(
            None
            if frequencies is None
            else tuple(Fraction(f) for f in frequencies)
        ),
        per_domain_size=data["per_domain_size"],
    )


def scheduler_options_to_dict(options: SchedulerOptions) -> Dict[str, Any]:
    return {
        "palette": palette_to_dict(options.palette),
        "sync_penalties": options.sync_penalties,
        "check_register_pressure": options.check_register_pressure,
        "budget_ratio": options.budget_ratio,
        "max_it_candidates": options.max_it_candidates,
        "preplace_recurrences": options.preplace_recurrences,
        "ed2_refinement": options.ed2_refinement,
        "refinement_passes": options.refinement_passes,
        "pseudo_window": options.pseudo_window,
    }


def scheduler_options_from_dict(data: Dict[str, Any]) -> SchedulerOptions:
    data = dict(data)
    palette = palette_from_dict(data.pop("palette"))
    return SchedulerOptions(palette=palette, **data)


# ----------------------------------------------------------------------
# operating points and selections
# ----------------------------------------------------------------------
def domain_setting_to_dict(setting: DomainSetting) -> Dict[str, Any]:
    return {
        "cycle_time": _fraction_str(setting.cycle_time),
        "vdd": setting.vdd,
        "vth": setting.vth,
    }


def domain_setting_from_dict(data: Dict[str, Any]) -> DomainSetting:
    return DomainSetting(
        cycle_time=Fraction(data["cycle_time"]),
        vdd=data["vdd"],
        vth=data["vth"],
    )


def operating_point_to_dict(point: OperatingPoint) -> Dict[str, Any]:
    return {
        "clusters": [domain_setting_to_dict(s) for s in point.clusters],
        "icn": domain_setting_to_dict(point.icn),
        "cache": domain_setting_to_dict(point.cache),
    }


def operating_point_from_dict(data: Dict[str, Any]) -> OperatingPoint:
    return OperatingPoint(
        clusters=tuple(domain_setting_from_dict(s) for s in data["clusters"]),
        icn=domain_setting_from_dict(data["icn"]),
        cache=domain_setting_from_dict(data["cache"]),
    )


def selection_to_dict(selection: SelectionResult) -> Dict[str, Any]:
    return {
        "point": operating_point_to_dict(selection.point),
        "estimated_time_ns": selection.estimated_time_ns,
        "estimated_energy": selection.estimated_energy,
        "estimated_ed2": selection.estimated_ed2,
        "n_fast": selection.n_fast,
        "fast_factor": _fraction_str(selection.fast_factor),
        "slow_ratio": _fraction_str(selection.slow_ratio),
    }


def selection_from_dict(data: Dict[str, Any]) -> SelectionResult:
    return SelectionResult(
        point=operating_point_from_dict(data["point"]),
        estimated_time_ns=data["estimated_time_ns"],
        estimated_energy=data["estimated_energy"],
        estimated_ed2=data["estimated_ed2"],
        n_fast=data["n_fast"],
        fast_factor=Fraction(data["fast_factor"]),
        slow_ratio=Fraction(data["slow_ratio"]),
    )


# ----------------------------------------------------------------------
# measurements and calibration
# ----------------------------------------------------------------------
def energy_estimate_to_dict(energy: EnergyEstimate) -> Dict[str, Any]:
    return {
        "cluster_dynamic": energy.cluster_dynamic,
        "icn_dynamic": energy.icn_dynamic,
        "cache_dynamic": energy.cache_dynamic,
        "cluster_static": energy.cluster_static,
        "icn_static": energy.icn_static,
        "cache_static": energy.cache_static,
    }


def energy_estimate_from_dict(data: Dict[str, Any]) -> EnergyEstimate:
    return EnergyEstimate(**data)


def measured_to_dict(measured: MeasuredExecution) -> Dict[str, Any]:
    return {
        "energy": energy_estimate_to_dict(measured.energy),
        "exec_time_ns": measured.exec_time_ns,
    }


def measured_from_dict(data: Dict[str, Any]) -> MeasuredExecution:
    return MeasuredExecution(
        energy=energy_estimate_from_dict(data["energy"]),
        exec_time_ns=data["exec_time_ns"],
    )


def units_to_dict(units: CalibratedUnits) -> Dict[str, Any]:
    return {
        "e_ins_unit": units.e_ins_unit,
        "e_comm": units.e_comm,
        "e_access": units.e_access,
        "static_rate_clusters": units.static_rate_clusters,
        "static_rate_icn": units.static_rate_icn,
        "static_rate_cache": units.static_rate_cache,
        "n_clusters": units.n_clusters,
        "reference": domain_setting_to_dict(units.reference),
        "breakdown": breakdown_to_dict(units.breakdown),
    }


def units_from_dict(data: Dict[str, Any]) -> CalibratedUnits:
    data = dict(data)
    reference = domain_setting_from_dict(data.pop("reference"))
    breakdown = breakdown_from_dict(data.pop("breakdown"))
    return CalibratedUnits(reference=reference, breakdown=breakdown, **data)


# ----------------------------------------------------------------------
# schedules (the per-loop cache's disk form)
# ----------------------------------------------------------------------
def schedule_to_dict(schedule) -> Dict[str, Any]:
    """JSON-safe form of a live :class:`~repro.scheduler.schedule.Schedule`.

    Operations and dependences are referenced by their index in the
    loop's DDG (the per-loop cache key embeds the loop fingerprint, so
    indices are stable for any DDG the payload is restored against).
    Placements, copies and assignments serialize as *lists* preserving
    dict insertion order: ``cluster_energy_units`` sums floats in
    placement order, so restoring into a differently-ordered dict would
    break bit-identity of warm results.
    """
    op_index = {op: i for i, op in enumerate(schedule.ddg.operations)}
    dep_index = {dep: i for i, dep in enumerate(schedule.ddg.dependences)}
    return {
        "it": _fraction_str(schedule.it),
        "sync_penalties": schedule.sync_penalties,
        "assignments": [
            [domain, _fraction_str(a.frequency), a.ii]
            for domain, a in schedule.assignments.items()
        ],
        "placements": [
            [op_index[op], placed.cluster, placed.cycle]
            for op, placed in schedule.placements.items()
        ],
        "copies": [
            [dep_index[dep], copy.bus_cycle]
            for dep, copy in schedule.copies.items()
        ],
    }


def schedule_from_dict(data: Dict[str, Any], ddg, machine):
    """Rebuild a live schedule for ``ddg`` on ``machine``.

    The inverse of :func:`schedule_to_dict`; the caller guarantees the
    DDG/machine pair matches the one the payload was encoded against
    (the per-loop cache key does exactly that).
    """
    from repro.scheduler.schedule import (
        DomainAssignment,
        PlacedCopy,
        PlacedOp,
        Schedule,
    )

    ops = ddg.operations
    deps = ddg.dependences
    assignments = {
        domain: DomainAssignment(
            domain=domain, frequency=Fraction(frequency), ii=ii
        )
        for domain, frequency, ii in data["assignments"]
    }
    placements = {}
    for index, cluster, cycle in data["placements"]:
        op = ops[index]
        placements[op] = PlacedOp(op=op, cluster=cluster, cycle=cycle)
    copies = {}
    for index, bus_cycle in data["copies"]:
        dep = deps[index]
        copies[dep] = PlacedCopy(dep=dep, bus_cycle=bus_cycle)
    return Schedule(
        ddg,
        machine,
        it=Fraction(data["it"]),
        assignments=assignments,
        placements=placements,
        copies=copies,
        sync_penalties=data["sync_penalties"],
    )


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------
def loop_profile_to_dict(loop: LoopProfile) -> Dict[str, Any]:
    return {
        "name": loop.name,
        "rec_mii": _fraction_str(loop.rec_mii),
        "res_mii": loop.res_mii,
        "ii_homogeneous": loop.ii_homogeneous,
        "cycles_per_iteration": loop.cycles_per_iteration,
        "class_counts": {
            opclass.value: count for opclass, count in loop.class_counts.items()
        },
        "energy_units_per_iteration": loop.energy_units_per_iteration,
        "comms_per_iteration": loop.comms_per_iteration,
        "mem_accesses_per_iteration": loop.mem_accesses_per_iteration,
        "lifetime_cycles_per_iteration": loop.lifetime_cycles_per_iteration,
        "trip_count": loop.trip_count,
        "weight": loop.weight,
        "critical_energy_fraction": loop.critical_energy_fraction,
        "critical_boundary_edges": loop.critical_boundary_edges,
    }


def loop_profile_from_dict(data: Dict[str, Any]) -> LoopProfile:
    data = dict(data)
    data["rec_mii"] = Fraction(data["rec_mii"])
    data["class_counts"] = {
        OpClass(name): count for name, count in data["class_counts"].items()
    }
    return LoopProfile(**data)


def profile_to_dict(profile: ProgramProfile) -> Dict[str, Any]:
    return {
        "name": profile.name,
        "loops": [loop_profile_to_dict(loop) for loop in profile.loops],
    }


def profile_from_dict(data: Dict[str, Any]) -> ProgramProfile:
    return ProgramProfile(
        name=data["name"],
        loops=[loop_profile_from_dict(loop) for loop in data["loops"]],
    )


# ----------------------------------------------------------------------
# experiment options / evaluation (the public entry points)
# ----------------------------------------------------------------------
def options_to_dict(options) -> Dict[str, Any]:
    """Canonical dict form of :class:`ExperimentOptions`.

    ``machine_file`` (when set) serializes as the file path *plus* the
    pack's scenario name and content fingerprint, read at serialization
    time — campaign job keys hash this dict, so a job's cache identity
    follows the pack's content.  The key is omitted entirely when unset,
    keeping pre-scenario payloads (and their job keys) byte-identical.
    """
    data = {
        "n_buses": options.n_buses,
        "breakdown": breakdown_to_dict(options.breakdown),
        "technology": technology_to_dict(options.technology),
        "design_space": design_space_to_dict(options.design_space),
        "scheduler": scheduler_options_to_dict(options.scheduler),
        "per_class_energy": options.per_class_energy,
        "machine": options.machine,
    }
    if getattr(options, "machine_file", None) is not None:
        from repro.scenarios import machine_file_fingerprint

        scenario, fingerprint = machine_file_fingerprint(options.machine_file)
        data["machine_file"] = {
            "path": str(options.machine_file),
            "scenario": scenario,
            "fingerprint": fingerprint,
        }
    return data


def options_from_dict(data: Dict[str, Any]):
    """Rebuild :class:`ExperimentOptions` from its dict form.

    Payloads written before metering became analytic-only carry a
    ``"simulate"`` flag; it selected between two paths that give
    identical results, so it is ignored.
    """
    from repro.pipeline.experiment import ExperimentOptions

    return ExperimentOptions(
        n_buses=data["n_buses"],
        breakdown=breakdown_from_dict(data["breakdown"]),
        technology=technology_from_dict(data["technology"]),
        design_space=design_space_from_dict(data["design_space"]),
        scheduler=scheduler_options_from_dict(data["scheduler"]),
        per_class_energy=data["per_class_energy"],
        # Absent in pre-stage-API payloads: those always ran the paper machine.
        machine=data.get("machine", "paper"),
        machine_file=data.get("machine_file", {}).get("path"),
    )


def evaluation_to_dict(evaluation) -> Dict[str, Any]:
    """Canonical dict form of :class:`BenchmarkEvaluation`."""
    return {
        "benchmark": evaluation.benchmark,
        "profile": profile_to_dict(evaluation.profile),
        "units": units_to_dict(evaluation.units),
        "baseline_selection": selection_to_dict(evaluation.baseline_selection),
        "heterogeneous_selection": selection_to_dict(
            evaluation.heterogeneous_selection
        ),
        "reference_measured": measured_to_dict(evaluation.reference_measured),
        "baseline_measured": measured_to_dict(evaluation.baseline_measured),
        "heterogeneous_measured": measured_to_dict(
            evaluation.heterogeneous_measured
        ),
    }


def evaluation_from_dict(data: Dict[str, Any]):
    """Rebuild :class:`BenchmarkEvaluation` from its dict form."""
    from repro.pipeline.experiment import BenchmarkEvaluation

    return BenchmarkEvaluation(
        benchmark=data["benchmark"],
        profile=profile_from_dict(data["profile"]),
        units=units_from_dict(data["units"]),
        baseline_selection=selection_from_dict(data["baseline_selection"]),
        heterogeneous_selection=selection_from_dict(
            data["heterogeneous_selection"]
        ),
        reference_measured=measured_from_dict(data["reference_measured"]),
        baseline_measured=measured_from_dict(data["baseline_measured"]),
        heterogeneous_measured=measured_from_dict(data["heterogeneous_measured"]),
    )

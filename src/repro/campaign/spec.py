"""Campaign specifications: option grids expanded into concrete jobs.

A :class:`CampaignSpec` names the benchmarks to run and, for each
experiment dimension the paper sweeps (bus count, target machine,
per-class energies, the scheduler ablation switches), the grid of
values to explore.  :meth:`CampaignSpec.expand` takes the cross product
and emits one :class:`~repro.campaign.job.ExperimentJob` per point, in a
deterministic order.

Every input travels by content, so a job runs the same in any process.
A benchmark is a built-in SPECfp2000 profile name or a
:class:`~repro.workloads.spec_profiles.BenchmarkSpec` (a scenario-pack
workload), which each of its jobs embeds.  The machine axis,
``machine_files``, holds scenario pack paths (:mod:`repro.scenarios`),
with ``None`` standing for the paper machine; job keys embed each
file's scenario name and content fingerprint, so editing a pack
invalidates exactly its own jobs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import WorkloadError
from repro.campaign.job import ExperimentJob
from repro.pipeline.experiment import ExperimentOptions
from repro.workloads.spec_profiles import BenchmarkSpec

#: A campaign benchmark: a built-in profile name or a carried spec.
Benchmark = Union[str, BenchmarkSpec]


def benchmark_to_dict(benchmark: Benchmark) -> Union[str, Dict[str, Any]]:
    """JSON form of a benchmark entry: a name, or the spec's dict."""
    if isinstance(benchmark, BenchmarkSpec):
        from repro.scenarios.schema import workload_to_dict

        return workload_to_dict(benchmark)
    return benchmark


def benchmark_from_dict(data: Union[str, Dict[str, Any]]) -> Benchmark:
    """Inverse of :func:`benchmark_to_dict`."""
    if isinstance(data, dict):
        from repro.scenarios.schema import workload_from_dict

        return workload_from_dict(data)
    return str(data)


def _job(
    benchmark: Benchmark, scale: float, options: ExperimentOptions
) -> ExperimentJob:
    if isinstance(benchmark, BenchmarkSpec):
        return ExperimentJob(
            benchmark=benchmark.name,
            scale=scale,
            options=options,
            workload=benchmark,
        )
    return ExperimentJob(benchmark=benchmark, scale=scale, options=options)


def _unique(values: Sequence) -> Tuple:
    """The grid values, de-duplicated, in first-seen order."""
    seen = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return tuple(seen)


@dataclass(frozen=True)
class CampaignSpec:
    """Benchmarks x option grids defining one campaign.

    Every ``*_grid`` field multiplies the job count by its length; the
    defaults reproduce a single paper-baseline configuration per
    benchmark.
    """

    benchmarks: Tuple[Benchmark, ...]
    scale: float = 0.05
    buses_grid: Tuple[int, ...] = (1,)
    #: The machine axis: scenario pack paths, ``None`` for the paper
    #: machine.  Each entry becomes one job's ``options.machine_file``.
    machine_files: Tuple[Optional[str], ...] = (None,)
    per_class_energy_grid: Tuple[bool, ...] = (True,)
    preplace_grid: Tuple[bool, ...] = (True,)
    ed2_refinement_grid: Tuple[bool, ...] = (True,)
    sync_penalties_grid: Tuple[bool, ...] = (True,)
    #: Base options the grids are applied on top of (advanced use:
    #: sweeps of breakdown shares or design spaces build their own base).
    base_options: ExperimentOptions = field(default_factory=ExperimentOptions)

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise WorkloadError("a campaign needs at least one benchmark")
        if self.scale <= 0:
            raise WorkloadError("corpus scale must be positive")
        for benchmark in self.benchmarks:
            _job(benchmark, self.scale, self.base_options)
        for label, grid in (
            ("buses_grid", self.buses_grid),
            ("machine_files", self.machine_files),
            ("per_class_energy_grid", self.per_class_energy_grid),
            ("preplace_grid", self.preplace_grid),
            ("ed2_refinement_grid", self.ed2_refinement_grid),
            ("sync_penalties_grid", self.sync_penalties_grid),
        ):
            if not grid:
                raise WorkloadError(f"campaign grid {label} is empty")

    # ------------------------------------------------------------------
    @property
    def n_configurations(self) -> int:
        """Number of option points per benchmark."""
        return (
            len(_unique(self.buses_grid))
            * len(_unique(self.machine_files))
            * len(_unique(self.per_class_energy_grid))
            * len(_unique(self.preplace_grid))
            * len(_unique(self.ed2_refinement_grid))
            * len(_unique(self.sync_penalties_grid))
        )

    def __len__(self) -> int:
        return len(_unique(self.benchmarks)) * self.n_configurations

    def expand(self) -> List[ExperimentJob]:
        """All jobs of the campaign, in deterministic order."""
        jobs: List[ExperimentJob] = []
        for benchmark, buses, machine_file, per_class, preplace, ed2_ref, sync in (
            itertools.product(
                _unique(self.benchmarks),
                _unique(self.buses_grid),
                _unique(self.machine_files),
                _unique(self.per_class_energy_grid),
                _unique(self.preplace_grid),
                _unique(self.ed2_refinement_grid),
                _unique(self.sync_penalties_grid),
            )
        ):
            scheduler = replace(
                self.base_options.scheduler,
                preplace_recurrences=preplace,
                ed2_refinement=ed2_ref,
                sync_penalties=sync,
            )
            options = replace(
                self.base_options,
                n_buses=buses,
                machine_file=machine_file,
                per_class_energy=per_class,
                scheduler=scheduler,
            )
            jobs.append(_job(benchmark, self.scale, options))
        return jobs

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (campaign manifests)."""
        return {
            "benchmarks": [benchmark_to_dict(b) for b in self.benchmarks],
            "scale": self.scale,
            "buses_grid": list(self.buses_grid),
            "machine_files": list(self.machine_files),
            "per_class_energy_grid": list(self.per_class_energy_grid),
            "preplace_grid": list(self.preplace_grid),
            "ed2_refinement_grid": list(self.ed2_refinement_grid),
            "sync_penalties_grid": list(self.sync_penalties_grid),
            "base_options": self.base_options.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        check_grid_keys(data)
        return cls(
            benchmarks=tuple(benchmark_from_dict(b) for b in data["benchmarks"]),
            scale=data["scale"],
            buses_grid=tuple(data["buses_grid"]),
            machine_files=tuple(data.get("machine_files", (None,))),
            per_class_energy_grid=tuple(data["per_class_energy_grid"]),
            preplace_grid=tuple(data["preplace_grid"]),
            ed2_refinement_grid=tuple(data["ed2_refinement_grid"]),
            sync_penalties_grid=tuple(data["sync_penalties_grid"]),
            base_options=ExperimentOptions.from_dict(data["base_options"]),
        )


def check_grid_keys(data: Dict[str, Any]) -> None:
    """Refuse ``*_grid`` keys a spec does not have, rather than ignore
    them: a grid of machine *names*, say, which no longer resolve."""
    known = {spec_field.name for spec_field in fields(CampaignSpec)}
    unknown = sorted(
        key for key in data if key.endswith("_grid") and key not in known
    )
    if unknown:
        raise WorkloadError(
            f"unknown campaign grid(s): {', '.join(unknown)}; machines are "
            "swept as scenario pack paths in machine_files (null for the "
            "paper machine)"
        )

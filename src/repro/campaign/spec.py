"""Campaign specifications: option grids expanded into concrete jobs.

A :class:`CampaignSpec` names the benchmarks to run and, for each
experiment dimension the paper sweeps (bus count, target machine,
per-class energies, the scheduler ablation switches), the grid of
values to explore.  :meth:`CampaignSpec.expand` takes the cross product
and emits one :class:`~repro.campaign.job.ExperimentJob` per point, in a
deterministic order.

**Names vs files.**  The machine axis has two legs that concatenate into
one grid: ``machine_grid`` holds *registered names* and ``machine_files``
holds *scenario pack paths* (:mod:`repro.scenarios`).  Names rely on the
registration contract documented in :mod:`repro.pipeline.registry` — in
particular, with ``n_jobs > 1`` a name must be registered in a module
the worker processes import, while a file needs no prior registration
anywhere: the job carries the path and every worker loads it.  Job keys
embed the file's scenario name and content fingerprint, so sweeping
files stays content-addressed (editing a pack invalidates exactly its
own jobs).  Benchmarks resolve through the same contract: built-in
SPECfp2000 profiles always work, and workloads registered from a pack
work inline (``n_jobs=1``) or wherever the workers also register them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.campaign.job import ExperimentJob
from repro.pipeline.experiment import ExperimentOptions
from repro.workloads.spec_profiles import SPEC2000_PROFILES


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

    benchmarks: Tuple[str, ...]
    scale: float = 0.05
    buses_grid: Tuple[int, ...] = (1,)
    #: Registered machine names to sweep (see
    #: :func:`repro.pipeline.registry.register_machine`).  Names resolve
    #: in the process that *runs* the job: with ``n_jobs > 1`` the
    #: workers re-import :mod:`repro`, so custom machines must be
    #: registered at import time (e.g. in a module the workers load),
    #: not ad hoc in the driver script.  Unknown names fail the job with
    #: a clear error instead of aborting the sweep.
    machine_grid: Tuple[str, ...] = ("paper",)
    #: Scenario pack paths to sweep alongside (concatenated with) the
    #: named machines: each file contributes one machine-axis point.
    #: Unlike names, files resolve in the worker with no registration.
    machine_files: Tuple[str, ...] = ()
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
        from repro.pipeline.registry import registered_workload

        for name in self.benchmarks:
            if name not in SPEC2000_PROFILES and registered_workload(name) is None:
                raise WorkloadError(f"unknown benchmark {name!r}")
        if self.scale <= 0:
            raise WorkloadError("corpus scale must be positive")
        for label, grid in (
            ("buses_grid", self.buses_grid),
            ("per_class_energy_grid", self.per_class_energy_grid),
            ("preplace_grid", self.preplace_grid),
            ("ed2_refinement_grid", self.ed2_refinement_grid),
            ("sync_penalties_grid", self.sync_penalties_grid),
        ):
            if not grid:
                raise WorkloadError(f"campaign grid {label} is empty")
        # The machine axis is the concatenation of both legs.
        if not self.machine_grid and not self.machine_files:
            raise WorkloadError(
                "campaign needs a machine: machine_grid and machine_files "
                "are both empty"
            )

    # ------------------------------------------------------------------
    def _machine_axis(self) -> Tuple[Tuple[str, str], ...]:
        """The machine grid as (kind, value) points: names then files."""
        return tuple(
            [("name", name) for name in _unique(self.machine_grid)]
            + [("file", path) for path in _unique(self.machine_files)]
        )

    @property
    def n_configurations(self) -> int:
        """Number of option points per benchmark."""
        return (
            len(_unique(self.buses_grid))
            * len(self._machine_axis())
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
        for benchmark, buses, machine, per_class, preplace, ed2_ref, sync in (
            itertools.product(
                _unique(self.benchmarks),
                _unique(self.buses_grid),
                self._machine_axis(),
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
            machine_kind, machine_value = machine
            options = replace(
                self.base_options,
                n_buses=buses,
                machine=(
                    machine_value
                    if machine_kind == "name"
                    else self.base_options.machine
                ),
                machine_file=(
                    machine_value if machine_kind == "file" else None
                ),
                per_class_energy=per_class,
                scheduler=scheduler,
            )
            jobs.append(
                ExperimentJob(
                    benchmark=benchmark, scale=self.scale, options=options
                )
            )
        return jobs

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (campaign manifests)."""
        return {
            "benchmarks": list(self.benchmarks),
            "scale": self.scale,
            "buses_grid": list(self.buses_grid),
            "machine_grid": list(self.machine_grid),
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
        return cls(
            benchmarks=tuple(data["benchmarks"]),
            scale=data["scale"],
            buses_grid=tuple(data["buses_grid"]),
            machine_grid=tuple(data.get("machine_grid", ("paper",))),
            machine_files=tuple(data.get("machine_files", ())),
            per_class_energy_grid=tuple(data["per_class_energy_grid"]),
            preplace_grid=tuple(data["preplace_grid"]),
            ed2_refinement_grid=tuple(data["ed2_refinement_grid"]),
            sync_penalties_grid=tuple(data["sync_penalties_grid"]),
            base_options=ExperimentOptions.from_dict(data["base_options"]),
        )

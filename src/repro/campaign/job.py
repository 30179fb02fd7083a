"""The campaign job model: one (benchmark, options) experiment point.

An :class:`ExperimentJob` is the unit of work a campaign schedules,
caches and aggregates.  Jobs are content-addressed: :meth:`key` hashes
the canonical JSON form of the job, so the same experiment always maps
to the same cache entry — across processes, machines and campaign
specs — while *any* change to an option (bus count, ablation flag,
design-space grid, scale, ...) yields a fresh key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.errors import WorkloadError
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json, content_key
from repro.workloads.spec_profiles import SPEC2000_PROFILES

#: Hex digits of the sha256 digest used as the job key (64 bits —
#: comfortable for campaigns of at most a few thousand jobs).
KEY_LENGTH = 16

#: Bumped when the serialized job layout changes incompatibly, so stale
#: cache entries never alias new ones.  2: options carry the target
#: machine name (staged experiment API).
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExperimentJob:
    """One fully specified experiment: benchmark x corpus scale x options."""

    benchmark: str
    scale: float
    options: ExperimentOptions = field(default_factory=ExperimentOptions)

    def __post_init__(self) -> None:
        if self.benchmark not in SPEC2000_PROFILES:
            from repro.pipeline.registry import registered_workload

            if registered_workload(self.benchmark) is None:
                raise WorkloadError(f"unknown benchmark {self.benchmark!r}")
        if self.scale <= 0:
            raise WorkloadError(f"corpus scale must be positive, got {self.scale}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe dict form of the job.

        A benchmark that names a *registered* workload (a scenario-pack
        corpus rather than a built-in profile) embeds its full spec
        under ``workload``.  That makes such jobs content-addressed —
        editing the workload definition changes the key, so stale
        cached results are never served — and self-contained:
        :meth:`from_dict` re-registers the spec, so worker processes
        need no prior registration.
        """
        data = {
            "schema": SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "options": self.options.to_dict(),
        }
        if self.benchmark not in SPEC2000_PROFILES:
            from repro.pipeline.registry import registered_workload
            from repro.scenarios.schema import workload_to_dict

            spec = registered_workload(self.benchmark)
            if spec is not None:
                data["workload"] = workload_to_dict(spec)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentJob":
        """Rebuild a job from :meth:`to_dict` output.

        An embedded ``workload`` spec is registered (replacing any
        same-named registration) before validation, so jobs carrying
        pack workloads rebuild in any process.
        """
        if "workload" in data:
            from repro.pipeline.registry import register_workload
            from repro.scenarios.schema import workload_from_dict

            register_workload(
                workload_from_dict(data["workload"]),
                name=data["benchmark"],
                overwrite=True,
            )
        return cls(
            benchmark=data["benchmark"],
            scale=data["scale"],
            options=ExperimentOptions.from_dict(data["options"]),
        )

    def canonical_json(self) -> str:
        """Canonical serialized form (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())

    def key(self) -> str:
        """Content-addressed cache key of this job.

        Hashes the canonical dict form — minus the machine file's
        *path*, which is transport (where a worker finds the file), not
        identity: the hashed ``machine_file`` entry keeps the pack's
        scenario name and content fingerprint, so moving or renaming a
        pack preserves its cache entries while editing it invalidates
        them.
        """
        data = self.to_dict()
        machine_file = data["options"].get("machine_file")
        if machine_file is not None:
            machine_file = dict(machine_file)
            machine_file.pop("path", None)
            data["options"] = dict(data["options"], machine_file=machine_file)
        return content_key(data, length=KEY_LENGTH)

    # ------------------------------------------------------------------
    def config_label(self) -> str:
        """Compact human-readable tag of the non-benchmark dimensions.

        Used to group results by configuration when aggregating: two jobs
        share a label exactly when they differ only in benchmark.
        """
        options = self.options
        scheduler = options.scheduler
        parts: List[str] = [f"buses={options.n_buses}"]
        if options.machine_file is not None:
            # The file-declared scenario name is the collision-free
            # identity (two packs may share a basename); fall back to
            # the path stem when the file is gone (e.g. --report-only
            # over a cache whose packs moved).
            try:
                from repro.scenarios import load_machine_file

                label = load_machine_file(
                    options.machine_file, register=False
                ).name
            except Exception:
                label = Path(options.machine_file).stem
            parts.append(f"machine-file={label}")
        elif options.machine != "paper":
            parts.append(f"machine={options.machine}")
        if not options.per_class_energy:
            parts.append("uniform-energy")
        if not scheduler.preplace_recurrences:
            parts.append("no-preplace")
        if not scheduler.ed2_refinement:
            parts.append("no-ed2-refinement")
        if not scheduler.sync_penalties:
            parts.append("no-sync-penalties")
        if scheduler.palette.per_domain_size is not None:
            parts.append(f"palette={scheduler.palette.per_domain_size}")
        elif scheduler.palette.frequencies is not None:
            parts.append(f"palette={len(scheduler.palette.frequencies)}f")
        if options.breakdown != type(options.breakdown)():
            parts.append(
                f"icn={options.breakdown.icn_share:g}"
                f",cache={options.breakdown.cache_share:g}"
            )
        return ",".join(parts)

    def describe(self) -> str:
        """One-line description used in progress output."""
        return f"{self.benchmark} [{self.config_label()}] scale={self.scale:g}"

"""Scenario packs: loading, validation and export.

A *scenario pack* is a TOML (or JSON) file declaring a machine and/or a
set of workloads under a ``[scenario]`` name::

    [scenario]
    name = "wide-issue"
    description = "8 double-width clusters behind four buses"

    [[machine.clusters]]
    count = 8
    int = 2
    fp = 2
    mem = 1
    registers = 32

    [machine.interconnect]
    buses = 4

Loading validates every field against the live model invariants (see
:mod:`repro.scenarios.schema`).  A pack's machine is targeted by its
path (``ExperimentOptions.machine_file``, CLI ``--machine-file``,
campaign ``machine_files``), which every process re-loads; its workloads
travel as specs inside the jobs that run them.

Packs are content-addressed: :attr:`ScenarioPack.fingerprint` hashes the
canonical dict form (not the file bytes), so reformatting a TOML file
does not invalidate campaign caches while any semantic change does.
:func:`load_machine_file` is the memoized entry point the experiment
pipeline uses to resolve ``ExperimentOptions.machine_file``.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.errors import ScenarioError
from repro.machine.clocking import FrequencyPalette
from repro.machine.machine import MachineDescription
from repro.scenarios import schema
from repro.scenarios.toml_writer import toml_dumps
from repro.workloads.spec_profiles import BenchmarkSpec, shadows_builtin

#: Directory of the packs shipped with the library.
BUNDLED_DIR = Path(__file__).parent / "packs"

_PACK_KEYS = {"scenario", "machine", "workloads"}
_SCENARIO_KEYS = {"name", "description"}


@dataclass(frozen=True)
class ScenarioPack:
    """One validated scenario: a named machine and/or workload set.

    ``palette`` carries the pack's optional operating-point palette; it
    is surfaced for callers to apply to
    :class:`~repro.scheduler.options.SchedulerOptions` (palettes are a
    scheduler knob, not part of :class:`MachineDescription`).
    """

    name: str
    description: str = ""
    machine: Optional[MachineDescription] = None
    palette: Optional[FrequencyPalette] = None
    workloads: Tuple[BenchmarkSpec, ...] = ()
    #: Where the pack was loaded from (None for in-memory packs).
    source: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario pack needs a non-empty name")
        if self.machine is None and not self.workloads:
            raise ScenarioError(
                f"scenario {self.name!r} declares neither a machine nor "
                "workloads"
            )
        names = [spec.name for spec in self.workloads]
        if len(set(names)) != len(names):
            raise ScenarioError(
                f"scenario {self.name!r} declares duplicate workload names"
            )
        for name in names:
            if shadows_builtin(name):
                raise ScenarioError(
                    f"scenario {self.name!r}: workload name {name!r} shadows "
                    "a built-in SPECfp2000 profile"
                )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form (the exact shape the loader accepts)."""
        data: Dict[str, Any] = {
            "scenario": {"name": self.name, "description": self.description}
        }
        if self.machine is not None:
            machine = schema.machine_to_dict(self.machine)
            if self.palette is not None:
                machine["palette"] = schema.palette_to_dict(self.palette)
            data["machine"] = machine
        if self.workloads:
            data["workloads"] = [
                schema.workload_to_dict(spec) for spec in self.workloads
            ]
        return data

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical dict form (formatting-independent)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def facet_fingerprints(self) -> Dict[str, str]:
        """Per-facet content hashes of the pack's machine.

        ``{"isa": ..., "cluster_shape": ...}`` — the two keys the
        per-loop cache layers on (see :mod:`repro.machine.fingerprint`).
        Unlike :attr:`fingerprint`, these ignore the pack's name,
        description, workloads and palette, so they answer the finer
        question "which warm per-loop artifacts does this edit keep?".
        Empty when the pack declares no machine.
        """
        if self.machine is None:
            return {}
        from repro.machine.fingerprint import (
            cluster_shape_fingerprint,
            isa_fingerprint,
        )

        return {
            "isa": isa_fingerprint(self.machine.isa),
            "cluster_shape": cluster_shape_fingerprint(self.machine),
        }

    def describe(self) -> str:
        """One-line summary used by listings."""
        parts = []
        if self.machine is not None:
            totals = self.machine.fu_totals()
            parts.append(
                f"{self.machine.n_clusters} cluster(s), "
                f"{sum(totals.values())} FUs, "
                f"{self.machine.total_registers} regs, "
                f"{self.machine.interconnect.n_buses} bus(es)"
            )
        if self.workloads:
            parts.append(f"{len(self.workloads)} workload(s)")
        return "; ".join(parts)



# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def pack_from_dict(
    data: Dict[str, Any], source: Optional[str] = None
) -> ScenarioPack:
    """Validate a raw pack dict into a :class:`ScenarioPack`."""
    where = source or "pack"
    schema._check_keys(data, _PACK_KEYS, where)
    scenario = data.get("scenario")
    if scenario is None:
        raise ScenarioError(f"{where}: missing required [scenario] table")
    schema._check_keys(scenario, _SCENARIO_KEYS, f"{where}.scenario")
    name = scenario.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(
            f"{where}.scenario: name must be a non-empty string, got {name!r}"
        )

    machine = None
    palette = None
    if "machine" in data:
        machine = schema.machine_from_dict(data["machine"], f"{where}.machine")
        palette = schema.machine_palette_from_dict(
            data["machine"], f"{where}.machine"
        )

    raw_workloads = data.get("workloads", [])
    if not isinstance(raw_workloads, list):
        raise ScenarioError(f"{where}: workloads must be an array of tables")
    workloads = tuple(
        schema.workload_from_dict(entry, f"{where}.workloads[{index}]")
        for index, entry in enumerate(raw_workloads)
    )

    try:
        return ScenarioPack(
            name=name,
            description=scenario.get("description", ""),
            machine=machine,
            palette=palette,
            workloads=workloads,
            source=source,
        )
    except ScenarioError:
        raise
    except Exception as error:
        raise ScenarioError(f"{where}: {error}") from error


def loads(text: str, source: Optional[str] = None) -> ScenarioPack:
    """Parse a pack from TOML (or JSON) source text."""
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            data = json.loads(text)
        else:
            data = tomllib.loads(text)
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as error:
        raise ScenarioError(f"{source or 'pack'}: parse error: {error}") from error
    return pack_from_dict(data, source=source)


def load_pack(path) -> ScenarioPack:
    """Load and validate a pack file (TOML or JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ScenarioError(f"cannot read scenario file {path}: {error}") from error
    return loads(text, source=str(path))


# ----------------------------------------------------------------------
# bundled packs
# ----------------------------------------------------------------------
def bundled_pack_paths() -> Dict[str, Path]:
    """File-stem -> path of every pack shipped under ``scenarios/packs/``."""
    return {
        path.stem: path for path in sorted(BUNDLED_DIR.glob("*.toml"))
    }


def bundled_packs() -> Tuple[ScenarioPack, ...]:
    """All bundled packs, loaded and validated (file-stem order)."""
    return tuple(load_pack(path) for path in bundled_pack_paths().values())


def find_pack(ref: str) -> ScenarioPack:
    """Resolve a pack reference: a bundled name, else a file path."""
    bundled = bundled_pack_paths()
    if ref in bundled:
        return load_pack(bundled[ref])
    path = Path(ref)
    if path.exists():
        return load_pack(path)
    known = ", ".join(sorted(bundled)) or "<none>"
    raise ScenarioError(
        f"unknown scenario {ref!r}: not a bundled pack ({known}) and no "
        "such file"
    )


# ----------------------------------------------------------------------
# the machine-file resolver (ExperimentOptions.machine_file)
# ----------------------------------------------------------------------
#: resolved path -> ((mtime_ns, size), loaded pack).  Campaign workers
#: and the job serializer resolve the same file many times per sweep;
#: the stat pair makes a repeat resolution one ``stat`` call — no
#: re-read, re-hash or re-parse — while an edited file (different
#: mtime/size) reloads.
_MACHINE_FILE_CACHE: Dict[str, Tuple[Tuple[int, int], ScenarioPack]] = {}


def load_machine_file(path) -> ScenarioPack:
    """Resolve a machine file: load, require a machine, memoize.

    This is the hook behind ``ExperimentOptions.machine_file`` and the
    CLI ``--machine-file`` flag.  The returned pack is guaranteed to
    carry a machine.
    """
    resolved = str(Path(path).resolve())
    try:
        stat = Path(resolved).stat()
    except OSError as error:
        raise ScenarioError(f"cannot read machine file {path}: {error}") from error
    signature = (stat.st_mtime_ns, stat.st_size)
    cached = _MACHINE_FILE_CACHE.get(resolved)
    if cached is not None and cached[0] == signature:
        return cached[1]
    try:
        content = Path(resolved).read_bytes()
    except OSError as error:
        raise ScenarioError(f"cannot read machine file {path}: {error}") from error
    pack = loads(content.decode(), source=str(path))
    if pack.machine is None:
        raise ScenarioError(
            f"scenario file {path} declares no [machine] table; it cannot "
            "be used as --machine-file"
        )
    pack = replace(pack, source=str(path))
    _MACHINE_FILE_CACHE[resolved] = (signature, pack)
    return pack


def machine_file_fingerprint(path) -> Tuple[str, str]:
    """(scenario name, content fingerprint) of a machine file.

    Used by the job serializer: campaign job keys embed this pair, so a
    job's cache identity follows the pack's *content*, not its path.
    """
    pack = load_machine_file(path)
    return pack.name, pack.fingerprint


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def pack_to_toml(pack: ScenarioPack) -> str:
    """Serialize a pack as TOML (parses back to an equal pack)."""
    return toml_dumps(pack.to_dict())


def machine_to_toml(
    machine: MachineDescription,
    name: str,
    description: str = "",
    palette: Optional[FrequencyPalette] = None,
) -> str:
    """Export any programmatic machine as a shareable scenario pack."""
    return pack_to_toml(
        ScenarioPack(
            name=name, description=description, machine=machine, palette=palette
        )
    )

"""JSON-safe (de)serialization of the pipeline's value types.

The campaign subsystem persists every experiment result on disk and
addresses jobs by a content hash of their options, so
:class:`~repro.pipeline.experiment.ExperimentOptions` and
:class:`~repro.pipeline.experiment.BenchmarkEvaluation` — and every value
type nested inside them — need exact, canonical dict representations.

One codec, :func:`to_data` / :func:`from_data`, writes and reads every
value type field by field, going by each field's *declared* type:

* ``Fraction`` is a string (``"9/10"``), read back exactly,
* a nested dataclass is a dict of its fields,
* ``Tuple[X, ...]`` and ``List[X]`` are lists, read back into the
  declared container,
* ``Optional[X]`` keeps ``None`` as ``None``,
* ``Mapping[Enum, V]`` is keyed by member value (``OpClass.FADD`` ->
  ``"fadd"``), its values unchanged,
* anything else (str, int, float, bool) passes through unchanged.

So the output holds only JSON-native types and ``json.dumps(...,
sort_keys=True)`` of it is canonical and hashable.  Decoding rejects a
key that is not a field, and a missing field that has no default, with
:class:`~repro.errors.PipelineError`.  Two forms are not a plain field
copy and stay hand-written: the options (:func:`options_to_dict`, with
the constant ``"machine"`` entry and the expanded ``machine_file``) and
live schedules (:func:`schedule_to_dict`, keyed by DDG index).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import typing
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import PipelineError
from repro.units import as_fraction

#: The serialized options' ``"machine"`` entry: always the paper
#: machine's name, so job keys written under the old machine registry
#: stay valid.
PAPER_MACHINE = "paper"


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


def write_json_atomic(path: Path, data: Any) -> Path:
    """Write ``data`` as sorted-key JSON to ``path`` via a hidden
    ``.<stem>.*.tmp`` file renamed over it, so a killed process never
    leaves a truncated file; every result-store file is written here."""
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            json.dump(data, handle, sort_keys=True)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def evaluation_ratios(evaluation: Dict[str, Any]) -> tuple:
    """(ed2, energy, time) ratios straight from an evaluation dict.

    Decodes only the two measured executions, not the full object
    graph, and returns :attr:`BenchmarkEvaluation.ratios
    <repro.pipeline.experiment.BenchmarkEvaluation.ratios>` of them —
    the warehouse ingests thousands of payloads and the service
    summarises every completion, and each needs only these three
    numbers.
    """
    from repro.sim.power_meter import MeasuredExecution

    het, base = (
        from_data(MeasuredExecution, evaluation[name])
        for name in ("heterogeneous_measured", "baseline_measured")
    )
    return het.ratios_to(base)


# ----------------------------------------------------------------------
# the field-driven codec
# ----------------------------------------------------------------------
#: One direction of a field's conversion; ``None`` passes values through.
_Convert = Optional[Callable[[Any], Any]]


def _each(convert: _Convert, container: type) -> Callable[[Any], Any]:
    if convert is None:
        return container
    return lambda values: container(convert(v) for v in values)


def _field_codec(hint) -> Tuple[_Convert, _Convert]:
    """(encode, decode) for one declared field type."""
    if hint is Fraction:
        return _fraction_str, Fraction
    if dataclasses.is_dataclass(hint):
        return to_data, partial(from_data, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode, decode = _field_codec(inner)
        return (
            encode and (lambda v: None if v is None else encode(v)),
            decode and (lambda v: None if v is None else decode(v)),
        )
    if origin in (tuple, list):
        encode, decode = _field_codec(args[0])
        return _each(encode, list), _each(decode, origin)
    if origin in (Mapping, dict) and issubclass(args[0], Enum):
        key_type = args[0]
        return (
            lambda m: {k.value: v for k, v in m.items()},
            lambda m: {key_type(k): v for k, v in m.items()},
        )
    return None, None


#: Per-class plan: ``(name, encode, decode)`` per field, the field
#: names and the names without a default.
_Plan = Tuple[Tuple[Tuple[str, _Convert, _Convert], ...], frozenset, frozenset]
_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        plan = _PLANS[cls] = (
            tuple((f.name, *_field_codec(hints[f.name])) for f in fields),
            frozenset(f.name for f in fields),
            frozenset(
                f.name
                for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ),
        )
    return plan


def to_data(value) -> Dict[str, Any]:
    """The JSON-safe dict form of a dataclass value (module docstring)."""
    return {
        name: getattr(value, name) if encode is None else encode(getattr(value, name))
        for name, encode, _decode in _plan(type(value))[0]
    }


def from_data(cls: type, data: Dict[str, Any]):
    """Rebuild a ``cls`` from :func:`to_data` output.

    Raises :class:`PipelineError` naming ``cls`` when ``data`` is not a
    dict, has a key that is not a field, or lacks a field that has no
    default — one rule for every payload, including ones posted from
    outside the program.
    """
    fields, names, required = _plan(cls)
    if not isinstance(data, dict):
        raise PipelineError(
            f"{cls.__name__} expects a dict, got {type(data).__name__}"
        )
    if not names >= data.keys() >= required:
        unexpected = sorted(data.keys() - names)
        missing = sorted(required - data.keys())
        raise PipelineError(
            f"{cls.__name__}: unexpected keys {unexpected}, missing keys {missing}"
        )
    return cls(
        **{
            name: data[name] if decode is None else decode(data[name])
            for name, _encode, decode in fields
            if name in data
        }
    )


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
# experiment options (not a plain field copy)
# ----------------------------------------------------------------------
def options_to_dict(options) -> Dict[str, Any]:
    """Canonical dict form of :class:`ExperimentOptions`.

    ``machine_file`` (when set) serializes as the file path *plus* the
    pack's scenario name and content fingerprint, read at serialization
    time — campaign job keys hash this dict, so a job's cache identity
    follows the pack's content.  The key is omitted entirely when unset,
    keeping pre-scenario payloads (and their job keys) byte-identical.
    ``"machine"`` is the constant ``"paper"``: it once named a machine
    registry entry, and keeping it keeps every job key byte-identical.
    """
    data = to_data(options)
    machine_file = data.pop("machine_file")
    data["machine"] = PAPER_MACHINE
    if machine_file is not None:
        from repro.scenarios import machine_file_fingerprint

        scenario, fingerprint = machine_file_fingerprint(machine_file)
        data["machine_file"] = {
            "path": str(machine_file),
            "scenario": scenario,
            "fingerprint": fingerprint,
        }
    return data


def options_from_dict(data: Dict[str, Any]):
    """Rebuild :class:`ExperimentOptions` from its dict form.

    Payloads written before metering became analytic-only carry a
    ``"simulate"`` flag; it selected between two paths that give
    identical results, so it is ignored.  A ``"machine"`` other than
    ``"paper"`` named a machine registered in some process; nothing
    here can rebuild it, so it is rejected.
    """
    from repro.pipeline.experiment import ExperimentOptions

    if not isinstance(data, dict):
        raise PipelineError(f"options must be a dict, got {type(data).__name__}")
    data = dict(data)
    data.pop("simulate", None)
    # Absent in pre-stage-API payloads: those always ran the paper machine.
    machine = data.pop("machine", PAPER_MACHINE)
    if machine != PAPER_MACHINE:
        raise PipelineError(
            f"options name the machine {machine!r}; machines are no longer "
            "resolved by name: declare it in a scenario pack and pass its "
            "path as machine_file"
        )
    if data.get("machine_file") is not None:
        data["machine_file"] = data["machine_file"]["path"]
    return from_data(ExperimentOptions, data)

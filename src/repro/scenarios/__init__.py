"""Declarative scenario packs: file-based machines and workloads.

Everything the experiment pipeline targets — the machine and the
workload corpus — can be declared in a TOML (or JSON) *scenario pack*
instead of Python, validated against the model invariants, and
auto-registered into :mod:`repro.pipeline.registry` under the
file-declared names.  This turns the experiment API and the campaign runner
into a design-space-exploration tool: write a machine file, sweep it.

Three layers:

* :mod:`~repro.scenarios.schema` — dict-level (de)serialization with
  strict validation (unknown keys, bad FU codes, negative latencies, ...
  all raise :class:`~repro.errors.ScenarioError` naming the field),
* :mod:`~repro.scenarios.pack` — the :class:`ScenarioPack` model,
  file loading, bundled-pack discovery, registry installation, and
  round-trip TOML export for sharing programmatic machines,
* :mod:`~repro.scenarios.toml_writer` — the minimal TOML emitter
  backing the export path (the stdlib reads TOML but cannot write it).

Bundled packs (``repro/scenarios/packs/*.toml``): ``paper-1bus`` /
``paper-2bus`` (the paper's evaluation machine), ``wide-issue`` (8
double-width clusters), ``low-power`` (reduced FUs, lean multiplier),
``embedded`` (2 clusters, small register files), ``stress`` (a
deep-recurrence, low-trip-count workload corpus).

Quick use::

    from repro.scenarios import find_pack, machine_to_toml

    pack = find_pack("wide-issue")          # bundled name or file path
    pack.register()                         # now a registered machine
    print(machine_to_toml(my_machine, "my-dsp"))   # share it as TOML

or from the command line::

    python -m repro scenarios                      # list bundled packs
    python -m repro scenarios --validate my.toml   # check a pack file
    python -m repro suite --machine-file my.toml   # run on it
"""

from repro.scenarios.pack import (
    BUNDLED_DIR,
    ScenarioPack,
    bundled_pack_paths,
    bundled_packs,
    find_pack,
    load_machine_file,
    load_pack,
    loads,
    machine_file_fingerprint,
    machine_to_toml,
    pack_from_dict,
    pack_to_toml,
    register_bundled_packs,
)
from repro.scenarios.schema import (
    machine_from_dict,
    machine_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.scenarios.toml_writer import toml_dumps

__all__ = [
    "BUNDLED_DIR",
    "ScenarioPack",
    "bundled_pack_paths",
    "bundled_packs",
    "find_pack",
    "load_machine_file",
    "load_pack",
    "loads",
    "machine_file_fingerprint",
    "machine_to_toml",
    "pack_from_dict",
    "pack_to_toml",
    "register_bundled_packs",
    "machine_from_dict",
    "machine_to_dict",
    "workload_from_dict",
    "workload_to_dict",
    "toml_dumps",
]

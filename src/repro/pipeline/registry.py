"""Pluggable machines and workloads.

Two small name -> value registries back the
:class:`~repro.pipeline.stages.Experiment` builder and the workload
resolvers, so a custom machine (an :mod:`examples.custom_machine`-style
retarget or a :mod:`repro.scenarios` pack) or a file-declared workload
corpus flows through *exactly* the same pipeline as the paper's
evaluation setup.  The selector and the scheduler are fixed: every
experiment uses the paper's section 3.3 models and section 4 algorithm.

**The name-registration contract.**  A registered name is a stable,
serializable identity:

* it fits in :class:`~repro.pipeline.experiment.ExperimentOptions`
  (``options.machine``) and therefore in content-addressed campaign job
  keys — so two jobs naming the same machine share cache entries, and
  renaming a machine is a cache-visible change;
* resolution happens in the process that *runs* the experiment.  With
  ``n_jobs > 1`` campaign workers re-import :mod:`repro`, so names
  registered ad hoc in a driver script do not exist there — register at
  import time (a module the workers load), or carry the definition in
  the job itself (``ExperimentOptions.machine_file``, which scenario
  packs use: the worker re-loads and re-registers the file);
* names are unique per registry; re-registering raises unless
  ``overwrite=True``.  Scenario packs register with ``overwrite=True``
  so re-loading an edited file replaces the old definition;
* the machine ``"paper"`` (:data:`PAPER`) is the paper's evaluation
  setup and is registered at import time.

What each registry holds:

* machine: ``factory(options: ExperimentOptions) -> MachineDescription``
  (the options carry ``n_buses``/``per_class_energy`` so one factory can
  serve several option points; factories may ignore them — file-loaded
  machines do, because the file fixes every structural parameter),
* workload: no factory — a validated
  :class:`~repro.workloads.spec_profiles.BenchmarkSpec` registered under
  its own name, resolvable through
  :func:`repro.workloads.spec_profile` alongside the built-in
  SPECfp2000 profiles.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import PipelineError
from repro.machine.machine import MachineDescription, paper_machine
from repro.workloads.spec_profiles import SPEC2000_PROFILES, BenchmarkSpec

#: The machine name resolved by default — the paper's evaluation setup
#: (section 5).
PAPER = "paper"

_MACHINES: Dict[str, Callable[..., MachineDescription]] = {}


# ----------------------------------------------------------------------
# machines
# ----------------------------------------------------------------------
def register_machine(
    name: str, factory: Callable, overwrite: bool = False
) -> None:
    """Register ``factory`` as the machine named ``name``."""
    if not callable(factory):
        raise PipelineError(f"machine factory for {name!r} is not callable")
    if name in _MACHINES and not overwrite:
        raise PipelineError(
            f"machine {name!r} is already registered (pass overwrite=True "
            "to replace it)"
        )
    _MACHINES[name] = factory


def machine_factory(name: str) -> Callable:
    """The machine factory registered under ``name``."""
    try:
        return _MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(_MACHINES)) or "<none>"
        raise PipelineError(
            f"unknown machine {name!r}; registered: {known}"
        ) from None


def machine_names() -> Tuple[str, ...]:
    """Registered machine names, sorted."""
    return tuple(sorted(_MACHINES))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
_WORKLOADS: Dict[str, BenchmarkSpec] = {}


def register_workload(
    spec: BenchmarkSpec, name: Optional[str] = None, overwrite: bool = False
) -> None:
    """Register a workload spec under ``name`` (default: ``spec.name``).

    Registered workloads resolve through
    :func:`repro.workloads.spec_profile` exactly like the built-in
    SPECfp2000 profiles, so ``build_corpus``/CLI ``evaluate``/inline
    campaigns accept them by name.  The built-in profile names are
    reserved: registering over one raises even with ``overwrite=True``
    (the paper corpora are fixed reference points).
    """
    if not isinstance(spec, BenchmarkSpec):
        raise PipelineError(
            f"register_workload expects a BenchmarkSpec, got {spec!r}"
        )
    name = spec.name if name is None else name
    # Reserve the built-in names *and* their unprefixed short forms
    # ("swim" -> "171.swim"): spec_profile resolves those before this
    # registry, so a same-named workload would register fine yet be
    # silently unreachable.
    builtin_short_forms = {
        key.split(".", 1)[-1] for key in SPEC2000_PROFILES
    }
    if name in SPEC2000_PROFILES or name in builtin_short_forms:
        raise PipelineError(
            f"workload name {name!r} shadows a built-in SPECfp2000 profile"
        )
    if name in _WORKLOADS and not overwrite:
        raise PipelineError(
            f"workload {name!r} is already registered (pass overwrite=True "
            "to replace it)"
        )
    _WORKLOADS[name] = spec


def registered_workload(name: str):
    """The registered spec named ``name``, or None (built-ins excluded)."""
    return _WORKLOADS.get(name)


def workload_names() -> Tuple[str, ...]:
    """All resolvable workload names (built-in + registered), sorted."""
    return tuple(sorted(set(SPEC2000_PROFILES) | set(_WORKLOADS)))


# ----------------------------------------------------------------------
# built-ins: the paper's evaluation setup
# ----------------------------------------------------------------------
def _paper_machine_factory(options) -> MachineDescription:
    return paper_machine(
        n_buses=options.n_buses, uniform_energy=not options.per_class_energy
    )


register_machine(PAPER, _paper_machine_factory)

"""Pluggable machines, selectors, schedulers and workloads.

Four small name -> value registries back the
:class:`~repro.pipeline.stages.Experiment` builder and the workload
resolvers, so a custom machine (an :mod:`examples.custom_machine`-style
retarget or a :mod:`repro.scenarios` pack), an alternative configuration
selector, a different heterogeneous scheduler, or a file-declared
workload corpus flows through *exactly* the same pipeline as the paper's
evaluation setup.

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
* ``"paper"`` (:data:`PAPER`) is reserved in every registry for the
  paper's evaluation setup and is registered at import time.

Factory signatures:

* machine: ``factory(options: ExperimentOptions) -> MachineDescription``
  (the options carry ``n_buses``/``per_class_energy`` so one factory can
  serve several option points; factories may ignore them — file-loaded
  machines do, because the file fixes every structural parameter),
* selector: ``factory(machine, technology, design_space)`` returning an
  object with ``select(profile, units) -> SelectionResult``,
* scheduler: ``factory(machine, scheduler_options)`` returning an object
  with ``schedule(loop, point, weights=...) -> Schedule``,
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
from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler
from repro.vfs.selector import ConfigurationSelector
from repro.workloads.spec_profiles import SPEC2000_PROFILES, BenchmarkSpec

#: The name every registry resolves by default — the paper's evaluation
#: setup (section 5).
PAPER = "paper"

_MACHINES: Dict[str, Callable[..., MachineDescription]] = {}
_SELECTORS: Dict[str, Callable] = {}
_SCHEDULERS: Dict[str, Callable] = {}


def _register(
    registry: Dict[str, Callable],
    kind: str,
    name: str,
    factory: Callable,
    overwrite: bool,
) -> None:
    if not callable(factory):
        raise PipelineError(f"{kind} factory for {name!r} is not callable")
    if name in registry and not overwrite:
        raise PipelineError(
            f"{kind} {name!r} is already registered (pass overwrite=True "
            "to replace it)"
        )
    registry[name] = factory


def _resolve(registry: Dict[str, Callable], kind: str, name: str) -> Callable:
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry)) or "<none>"
        raise PipelineError(
            f"unknown {kind} {name!r}; registered: {known}"
        ) from None


# ----------------------------------------------------------------------
# machines
# ----------------------------------------------------------------------
def register_machine(
    name: str, factory: Callable, overwrite: bool = False
) -> None:
    """Register ``factory`` as the machine named ``name``."""
    _register(_MACHINES, "machine", name, factory, overwrite)


def machine_factory(name: str) -> Callable:
    """The machine factory registered under ``name``."""
    return _resolve(_MACHINES, "machine", name)


def machine_names() -> Tuple[str, ...]:
    """Registered machine names, sorted."""
    return tuple(sorted(_MACHINES))


# ----------------------------------------------------------------------
# selectors
# ----------------------------------------------------------------------
def register_selector(
    name: str, factory: Callable, overwrite: bool = False
) -> None:
    """Register ``factory`` as the configuration selector ``name``."""
    _register(_SELECTORS, "selector", name, factory, overwrite)


def selector_factory(name: str) -> Callable:
    """The selector factory registered under ``name``."""
    return _resolve(_SELECTORS, "selector", name)


def selector_names() -> Tuple[str, ...]:
    """Registered selector names, sorted."""
    return tuple(sorted(_SELECTORS))


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
def register_scheduler(
    name: str, factory: Callable, overwrite: bool = False
) -> None:
    """Register ``factory`` as the heterogeneous scheduler ``name``.

    The contract is determinism: equal inputs (loop, machine, point,
    options, weights) must give equal schedules.  The schedule stage
    memoizes every loop's schedule in the loop cache, keyed on exactly
    those inputs plus the engine's class, so it may answer
    ``schedule()`` from an earlier run or from disk; an engine whose
    schedules depend on anything else must carry it in its options.
    The engine exposes ``machine`` and ``options``, and its schedules
    must round-trip through
    :func:`~repro.pipeline.serialization.schedule_to_dict`.
    """
    _register(_SCHEDULERS, "scheduler", name, factory, overwrite)


def scheduler_factory(name: str) -> Callable:
    """The scheduler factory registered under ``name``."""
    return _resolve(_SCHEDULERS, "scheduler", name)


def scheduler_names() -> Tuple[str, ...]:
    """Registered scheduler names, sorted."""
    return tuple(sorted(_SCHEDULERS))


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
register_selector(PAPER, ConfigurationSelector)
register_scheduler(PAPER, HeterogeneousModuloScheduler)

"""Per-layer timing for the traced run, from the benchmark's own files.

:class:`Tracer` replaces the public functions of each layer (listed in
:data:`TARGETS`) with timing wrappers for the duration of a ``with``
block, and keeps, per layer span, its call count, busy time and self
time (busy time minus the time of the layer spans nested inside it).
Nothing under ``src/`` is changed: the wrappers are installed by
attribute assignment and removed afterwards.

A target that no longer exists (a later refactor renamed or deleted
it) is skipped with a note on stderr; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Module-level functions are
#: patched in the namespace of the module that *calls* them, because
#: the callers bound them with ``from ... import``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.pipeline.stages", "Stage.run", "pipeline.<stage>"),
    ("repro.pipeline.cache", "LOOP_CACHE.lookup", "pipeline.cache.loop_lookup"),
    ("repro.pipeline.cache", "LOOP_CACHE.store", "pipeline.cache.loop_store"),
    (
        "repro.scheduler.heterogeneous",
        "HeterogeneousModuloScheduler.schedule",
        "scheduler.schedule",
    ),
    ("repro.scheduler.heterogeneous", "loop_analysis", "scheduler.loop_analysis"),
    ("repro.scheduler.heterogeneous", "minimum_initiation_time", "scheduler.mii"),
    ("repro.scheduler.kernel", "KernelScheduler.run", "scheduler.kernel"),
    ("repro.scheduler.schedule", "Schedule.validate", "scheduler.validate"),
    (
        "repro.scheduler.heterogeneous",
        "build_partition",
        "scheduler.partition.build",
    ),
    (
        "repro.scheduler.partition.driver",
        "preplace_recurrences",
        "scheduler.partition.preplace",
    ),
    ("repro.scheduler.partition.driver", "coarsen", "scheduler.partition.coarsen"),
    ("repro.scheduler.partition.driver", "refine", "scheduler.partition.refine"),
    (
        "repro.scheduler.partition.refine",
        "ed2_refine",
        "scheduler.partition.ed2_refine",
    ),
    (
        "repro.scheduler.partition.refine",
        "partition_cost",
        "scheduler.partition.partition_cost",
    ),
    ("repro.vfs.selector", "ConfigurationSelector.select", "vfs.select"),
    (
        "repro.pipeline.stages",
        "optimum_homogeneous",
        "vfs.optimum_homogeneous",
    ),
    ("repro.sim.power_meter", "PowerMeter.measure_loop", "sim.measure_loop"),
    ("repro.sim.executor", "LoopExecutor.run", "sim.simulate"),
    ("repro.workloads", "build_corpus", "workloads.build_corpus"),
)

#: Pipeline stages, in order (the ``pipeline.<stage>`` spans).
STAGES = ("profile", "calibrate", "baseline", "select", "schedule", "measure")

#: Spans that contain other layer spans, so their self time is reported.
NESTED = tuple(f"pipeline.{stage}" for stage in STAGES) + (
    "scheduler.schedule",
    "scheduler.partition.build",
    "scheduler.partition.refine",
    "scheduler.partition.ed2_refine",
    "sim.measure_loop",
)

#: Every span name a traced run reports.
SPANS = tuple(f"pipeline.{stage}" for stage in STAGES) + tuple(
    name for _module, _attr, name in TARGETS if name != "pipeline.<stage>"
)

#: Call counts reported under a name of their own; the rest are ``<span>_calls``.
COUNT_NAMES = {
    "scheduler.schedule": "scheduler.loops",
    "sim.simulate": "sim.simulated_loops",
}


class SpanTable:
    """Calls, busy and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}

    def add(self, name: str, elapsed: float, self_elapsed: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + elapsed
        self.self_s[name] = self.self_s.get(name, 0.0) + self_elapsed

    def metrics(self) -> Dict[str, float]:
        """``<span>_s``, ``<span>_calls`` and (nested spans) ``_self_s``."""
        out: Dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = self.busy.get(name, 0.0)
            out[COUNT_NAMES.get(name, f"{name}_calls")] = self.calls.get(name, 0)
            if name in NESTED:
                out[f"{name}_self_s"] = self.self_s.get(name, 0.0)
        return out


class Tracer(SpanTable):
    """Installs timing wrappers around :data:`TARGETS` while active.

    ``root()`` brackets one evaluation; the time its direct layer spans
    cover, over the time of all roots, is the attributed share.
    """

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []
        self.root_s = 0.0
        self.attributed_s = 0.0

    # -- wrappers ---------------------------------------------------------
    def _timed(self, fn: Callable, name_of: Callable[..., str]) -> Callable:
        stack = self._stack
        add = self.add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                add(name_of(*args, **kwargs), elapsed, elapsed - frame[0])
                if stack:
                    stack[-1][0] += elapsed

        return traced

    @contextlib.contextmanager
    def root(self):
        """Bracket one evaluation (see :attr:`attributed_ratio`)."""
        frame = [0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.root_s += time.perf_counter() - started
            self._stack.pop()
            self.attributed_s += frame[0]

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"trace: {module_name}.{path} not found; skipped", file=sys.stderr)
                continue
            if name == "pipeline.<stage>":
                name_of = _stage_name
            else:
                name_of = functools.partial(_fixed, name)
            self._patch(owner, attr, self._timed(original, name_of))
        return self

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)  # an instance falling back to its class

        self._undo.append(undo)

    def __exit__(self, *exc_info) -> bool:
        while self._undo:
            self._undo.pop()()
        return False

    @property
    def attributed_ratio(self) -> Optional[float]:
        return self.attributed_s / self.root_s if self.root_s > 0 else None


def _fixed(name: str, *_args, **_kwargs) -> str:
    return name


def _stage_name(stage, *_args, **_kwargs) -> str:
    return f"pipeline.{stage.name}"

"""Zero-dependency structured tracing: a process-local tree of spans.

A *span* is one named, timed region of work with optional attributes
(``span("schedule_loop", loop=name)``), counters accumulated while it is
open, and child spans opened inside it.  Spans form a per-thread stack;
closing a span attaches it to its parent, so a traced run yields a tree
whose timings attribute wall time to named pipeline work::

    from repro.telemetry import enable_tracing, span

    enable_tracing()
    with span("suite") as root:
        with span("evaluate", benchmark="171.swim"):
            ...
    # root now holds the whole timed tree

Tracing is **opt-in and near-free when off**: the module-level
:func:`span` returns one shared null context manager (no allocation, no
clock read) unless :func:`enable_tracing` ran — the hot pipeline paths
stay unperturbed, which is what keeps the ``repro bench`` gate against
``benchmarks/perf_baseline.json`` honest.  Enablement also flows from
the ``REPRO_TRACE`` environment variable (any non-empty value but
``0``), which is how spawn-platform pool workers — who inherit the
environment but not module globals — and subprocesses pick it up; the
campaign executor additionally passes an explicit flag through its
worker initializer.

Span trees serialize to JSON-safe dicts (:meth:`Span.to_dict`), so a
worker process ships its per-job tree back inside the job payload and
the warehouse ingests flattened summaries (:func:`summarize_trace`).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

#: Environment variable enabling tracing at import (``1``/anything
#: truthy); the explicit functions below override it either way.
TRACE_ENV = "REPRO_TRACE"

_enabled = False


class Span:
    """One named, timed region: attributes, counters, children."""

    __slots__ = (
        "name", "attributes", "counters", "children", "elapsed_s", "start_s",
    )

    def __init__(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        #: Monotonic duration (``perf_counter`` delta) — the authoritative
        #: length of the span, immune to wall-clock steps.
        self.elapsed_s: float = 0.0
        #: Wall-clock start (``time.time()``), set when the span opens.
        #: Used only to *place* spans from different processes on one
        #: timeline; durations always come from ``elapsed_s``, so clock
        #: skew between hosts can shift a span but never stretch it.
        self.start_s: Optional[float] = None

    def count(self, counter: str, n: int = 1) -> None:
        """Accumulate a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def annotate(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)

    @property
    def child_total_s(self) -> float:
        """Wall time attributed to direct children."""
        return sum(child.elapsed_s for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (crosses the worker process boundary)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
        }
        if self.start_s is not None:
            data["start_s"] = self.start_s
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        span = cls(str(data["name"]), data.get("attributes"))
        span.elapsed_s = float(data.get("elapsed_s", 0.0))
        raw_start = data.get("start_s")
        span.start_s = None if raw_start is None else float(raw_start)
        span.counters = {
            str(name): int(value)
            for name, value in (data.get("counters") or {}).items()
        }
        span.children = [
            cls.from_dict(child) for child in data.get("children") or ()
        ]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.elapsed_s:.6f}s, "
            f"{len(self.children)} child(ren))"
        )


# ----------------------------------------------------------------------
# the per-thread span stack
# ----------------------------------------------------------------------
_local = threading.local()


def _stack() -> List[Span]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def enable_tracing() -> None:
    """Turn span collection on for this process."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    """Turn span collection off and drop any open spans."""
    global _enabled
    _enabled = False
    _stack().clear()


def tracing_enabled() -> bool:
    """True when :func:`span` produces live spans."""
    return _enabled


def current_span() -> Optional[Span]:
    """The innermost open span of this thread (None when untraced)."""
    stack = _stack()
    return stack[-1] if stack else None


def span_count(counter: str, n: int = 1) -> None:
    """Accumulate a counter on the current span; no-op when untraced.

    The cheap flush point for hot code: count locally, call this once.
    """
    if not _enabled:
        return
    stack = _stack()
    if stack:
        stack[-1].count(counter, n)


class _NullSpanContext:
    """The shared do-nothing context manager of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Opens a live span on enter, times and attaches it on exit."""

    __slots__ = ("_span", "_started")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self._span = Span(name, attributes)
        self._started = 0.0

    def __enter__(self) -> Span:
        _stack().append(self._span)
        self._span.start_s = time.time()
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        self._span.elapsed_s = time.perf_counter() - self._started
        stack = _stack()
        # Tolerate disable_tracing() (stack cleared) inside the span.
        if stack and stack[-1] is self._span:
            stack.pop()
        if stack:
            stack[-1].children.append(self._span)
        return False


def span(name: str, **attributes: Any):
    """A context manager timing ``name``; yields the live :class:`Span`.

    When tracing is disabled this returns a shared null context manager
    (``with span(...) as sp`` binds ``sp = None``) — callers guard
    span-only work with ``if sp is not None``.
    """
    if not _enabled:
        return _NULL_SPAN
    return _SpanContext(name, attributes)


# ----------------------------------------------------------------------
# analysis over (serialized) trees
# ----------------------------------------------------------------------
def summarize_trace(tree: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Flatten a serialized span tree into per-name totals.

    Returns ``{name: {"n": count, "total_s": seconds}}`` over every span
    in the tree.  Nested same-named spans each contribute — the totals
    answer "time spent inside spans named X", not an exclusive-time
    partition (the tree itself keeps exact nesting).
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: Dict[str, Any]) -> None:
        name = str(node.get("name", "?"))
        bucket = totals.setdefault(name, {"n": 0, "total_s": 0.0})
        bucket["n"] += 1
        bucket["total_s"] += float(node.get("elapsed_s", 0.0))
        for child in node.get("children") or ():
            visit(child)

    visit(tree)
    return totals


def merge_summaries(
    summaries: Iterator[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Combine per-name totals from several trees (e.g. a campaign)."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, stats in summary.items():
            bucket = merged.setdefault(name, {"n": 0, "total_s": 0.0})
            bucket["n"] += stats.get("n", 0)
            bucket["total_s"] += stats.get("total_s", 0.0)
    return merged


def attribution(root: Span) -> float:
    """Fraction of a root span's wall time its direct children explain.

    The acceptance metric of ``repro trace``: ≥0.95 means the named
    stages account for essentially all the measured wall time.
    """
    if root.elapsed_s <= 0.0:
        return 1.0
    return min(1.0, root.child_total_s / root.elapsed_s)


def env_tracing_requested(environ: Optional[Dict[str, str]] = None) -> bool:
    """True when ``REPRO_TRACE`` asks for tracing (worker processes)."""
    raw = (environ if environ is not None else os.environ).get(TRACE_ENV, "")
    return raw.strip() not in ("", "0", "false", "no")


if env_tracing_requested():  # pragma: no cover - exercised via subprocesses
    enable_tracing()

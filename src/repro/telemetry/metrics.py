"""The metrics registry: counters, gauges, log-bucketed histograms.

A :class:`MetricsRegistry` holds named metric families; a family holds
one value per label combination (``counter.inc(stage="profile")``).
Everything is stdlib-only and cheap enough to stay **always on** — an
increment is a dict update — so the registry reflects process history
whether or not tracing is enabled.

Histograms use **fixed log-scale buckets** (powers of two, from ~1 µs to
~64 s by default): every histogram of the same bucket layout merges
exactly (bucket-wise addition), which is what lets a bench combine
per-thread observations, and what the property test in
``tests/test_telemetry.py`` pins down (merged histograms == histogram of
merged samples).

:func:`render_prometheus` serializes a registry in the Prometheus text
exposition format (``text/plain; version=0.0.4``) — the body of the
service's ``GET /metrics`` endpoint.

Naming convention (see ``docs/observability.md``): every series is
``repro_<subsystem>_<noun>[_<unit>]``, counters end in ``_total``,
histograms carry a unit suffix (``_seconds``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default histogram bucket upper bounds: powers of two spanning ~1 µs
#: to ~64 s.  Latency-shaped work (HTTP requests, pipeline stages) lands
#: well inside; everything larger pools in the +Inf overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    2.0**exponent for exponent in range(-20, 7)
)


class MetricsError(ReproError):
    """A metric was re-registered with a conflicting type or layout."""


_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Family:
    """Shared plumbing: one value object per label combination."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[_LabelKey, Any] = {}
        self._lock = threading.Lock()

    def labelsets(self) -> List[_LabelKey]:
        """Every recorded label combination, sorted."""
        return sorted(self._values)

    def clear(self) -> None:
        """Drop every recorded value (tests)."""
        with self._lock:
            self._values.clear()

    def _add(self, key: _LabelKey, n: float = 1) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n


class Counter(_Family):
    """A monotonically increasing count per label combination."""

    kind = "counter"

    def inc(self, n: float = 1, **labels: Any) -> None:
        """Add ``n`` (default 1) to the labelled series."""
        self._add(_label_key(labels), n)

    def series(self, **labels: Any) -> Callable[..., None]:
        """:meth:`inc` of one labelled series, its label key built once.

        For hot paths that count the same few series over and over.
        """
        return partial(self._add, _label_key(labels))

    def value(self, **labels: Any) -> float:
        """Current count of the labelled series (0 if never touched)."""
        return self._values.get(_label_key(labels), 0)


class Gauge(_Family):
    """A value that goes up and down (queue depths, pool sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, n: float = 1, **labels: Any) -> None:
        """Add ``n`` to the labelled series."""
        self._add(_label_key(labels), n)

    def dec(self, n: float = 1, **labels: Any) -> None:
        """Subtract ``n`` from the labelled series."""
        self.inc(-n, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0)


class HistogramData:
    """One mergeable histogram: fixed bounds, counts, sum.

    Standalone use (benches) or as the per-labelset state of a
    :class:`Histogram` family.  ``counts`` has ``len(bounds) + 1``
    entries; the last is the +Inf overflow bucket.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "HistogramData") -> "HistogramData":
        """Bucket-wise sum with ``other`` (same bounds required)."""
        if other.bounds != self.bounds:
            raise MetricsError(
                "cannot merge histograms with different bucket layouts"
            )
        merged = HistogramData(self.bounds)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.sum = self.sum + other.sum
        merged.count = self.count + other.count
        return merged

    @property
    def mean(self) -> float:
        """Exact sample mean (sum/count; 0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) by bucket interpolation.

        Linear within the bucket holding the target rank; the overflow
        bucket reports its lower bound (the layout's largest bound).
        """
        if not 0.0 < q <= 1.0:
            raise MetricsError(f"percentile takes 0 < q <= 1, got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                low = self.bounds[index - 1] if index else 0.0
                high = self.bounds[index]
                return low + (high - low) * (rank - previous) / bucket_count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: bounds, counts, sum, count and percentiles."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class Histogram(_Family):
    """A family of :class:`HistogramData`, one per label combination."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one sample on the labelled series."""
        key = _label_key(labels)
        with self._lock:
            data = self._values.get(key)
            if data is None:
                data = self._values[key] = HistogramData(self.buckets)
            data.observe(value)

    def data(self, **labels: Any) -> HistogramData:
        """The labelled series' histogram (empty if never observed)."""
        return self._values.get(_label_key(labels)) or HistogramData(
            self.buckets
        )


# ----------------------------------------------------------------------
class MetricsRegistry:
    """Named metric families, created on first use, rendered on demand."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, **kwargs)
            elif not isinstance(family, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def families(self) -> List[_Family]:
        """Every registered family, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Clear every family's values (families stay registered)."""
        for family in self._families.values():
            family.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every recorded series (tests, debugging)."""
        out: Dict[str, Any] = {}
        for family in self.families():
            series = {}
            for key in family.labelsets():
                label = ",".join(f"{n}={v}" for n, v in key)
                value = family._values[key]
                series[label] = (
                    value.to_dict()
                    if isinstance(value, HistogramData)
                    else value
                )
            out[family.name] = {"kind": family.kind, "series": series}
        return out


#: The process-wide registry every subsystem writes into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    """Get or create a counter in the process-wide registry."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get or create a gauge in the process-wide registry."""
    return REGISTRY.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
) -> Histogram:
    """Get or create a histogram in the process-wide registry."""
    return REGISTRY.histogram(name, help, buckets=buckets)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(key: _LabelKey, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _format_bound(bound: float) -> str:
    return _format_value(bound) if bound != float("inf") else "+Inf"


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text format (version 0.0.4)."""
    registry = registry if registry is not None else REGISTRY
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, Histogram):
            for key in family.labelsets():
                data = family._values[key]
                cumulative = 0
                for bound, bucket_count in zip(
                    (*data.bounds, float("inf")), data.counts
                ):
                    cumulative += bucket_count
                    labels = _labels_text(key, [("le", _format_bound(bound))])
                    lines.append(
                        f"{family.name}_bucket{labels} {cumulative}"
                    )
                suffix = _labels_text(key)
                lines.append(f"{family.name}_sum{suffix} {repr(data.sum)}")
                lines.append(f"{family.name}_count{suffix} {data.count}")
        else:
            for key in family.labelsets():
                lines.append(
                    f"{family.name}{_labels_text(key)} "
                    f"{_format_value(family._values[key])}"
                )
    return "\n".join(lines) + "\n"

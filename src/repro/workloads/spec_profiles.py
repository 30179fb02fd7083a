"""Per-benchmark workload profiles.

The constraint-class *time shares* are the paper's Table 2 (percentage of
execution time in loops with ``recMII < resMII`` / balanced /
``recMII >= 1.3 resMII``).  The qualitative traits come from the section
5.2 narrative:

* ``facerec``, ``lucas``, ``sixtrack`` — recurrence-bound with *few*
  instructions on the critical recurrences (largest ED^2 wins),
* ``fma3d``, ``apsi`` — recurrence-bound but with *wide* recurrences
  (similar speed-up, smaller energy saving),
* ``applu`` — recurrence-heavy but its hot loops iterate few times, so
  it_length matters as much as IT (small win),
* ``wupwise`` — mostly balanced loops (small win),
* ``swim``, ``mgrid`` — resource-bound with register pressure
  (win comes from voltage scaling, not speed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class RecurrenceWidth(enum.Enum):
    """How many operations sit on a benchmark's critical recurrences."""

    NARROW = "narrow"
    WIDE = "wide"


@dataclass(frozen=True)
class BenchmarkSpec:
    """Generation parameters of one synthetic benchmark."""

    name: str
    seed: int
    #: Table 2 shares (fractions of execution time, summing to ~1).
    resource_share: float
    balanced_share: float
    recurrence_share: float
    #: Width of the critical recurrences in recurrence-bound loops.
    recurrence_width: RecurrenceWidth
    #: Range of average trip counts (iterations per loop entry).
    trip_counts: Tuple[float, float]
    #: Loops in the full-size corpus.
    n_loops: int = 400

    def __post_init__(self) -> None:
        total = self.resource_share + self.balanced_share + self.recurrence_share
        if abs(total - 1.0) > 0.02:
            raise ValueError(
                f"{self.name}: constraint-class shares sum to {total}, not 1"
            )
        if self.trip_counts[0] < 2 or self.trip_counts[0] > self.trip_counts[1]:
            raise ValueError(f"{self.name}: bad trip-count range {self.trip_counts}")


#: Table 2 of the paper, encoded as generation targets.
SPEC2000_PROFILES: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec(
            name="168.wupwise",
            seed=1680,
            resource_share=0.1404,
            balanced_share=0.6876,
            recurrence_share=0.1720,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(60.0, 400.0),
        ),
        BenchmarkSpec(
            name="171.swim",
            seed=1710,
            resource_share=1.0,
            balanced_share=0.0,
            recurrence_share=0.0,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(100.0, 800.0),
        ),
        BenchmarkSpec(
            name="172.mgrid",
            seed=1720,
            resource_share=0.9554,
            balanced_share=0.0,
            recurrence_share=0.0446,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(100.0, 800.0),
        ),
        BenchmarkSpec(
            name="173.applu",
            seed=1730,
            resource_share=0.3194,
            balanced_share=0.0617,
            recurrence_share=0.6189,
            recurrence_width=RecurrenceWidth.NARROW,
            # The hot loops iterate a handful of times (section 5.2).
            trip_counts=(5.0, 18.0),
        ),
        BenchmarkSpec(
            name="178.galgel",
            seed=1780,
            resource_share=0.3327,
            balanced_share=0.0918,
            recurrence_share=0.5755,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(40.0, 300.0),
        ),
        BenchmarkSpec(
            name="187.facerec",
            seed=1870,
            resource_share=0.1659,
            balanced_share=0.0,
            recurrence_share=0.8341,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(60.0, 500.0),
        ),
        BenchmarkSpec(
            name="189.lucas",
            seed=1890,
            resource_share=0.3213,
            balanced_share=0.0002,
            recurrence_share=0.6785,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(60.0, 500.0),
        ),
        BenchmarkSpec(
            name="191.fma3d",
            seed=1910,
            resource_share=0.1522,
            balanced_share=0.0296,
            recurrence_share=0.8182,
            recurrence_width=RecurrenceWidth.WIDE,
            trip_counts=(60.0, 400.0),
        ),
        BenchmarkSpec(
            name="200.sixtrack",
            seed=2000,
            resource_share=0.0008,
            balanced_share=0.0,
            recurrence_share=0.9992,
            recurrence_width=RecurrenceWidth.NARROW,
            trip_counts=(80.0, 600.0),
        ),
        BenchmarkSpec(
            name="301.apsi",
            seed=3010,
            resource_share=0.1550,
            balanced_share=0.0337,
            recurrence_share=0.8113,
            recurrence_width=RecurrenceWidth.WIDE,
            trip_counts=(60.0, 400.0),
        ),
    )
}


def spec_profile(name: str) -> BenchmarkSpec:
    """Look up one built-in benchmark spec by (possibly unprefixed) name:
    the exact name, then the short form ``swim`` -> ``171.swim``."""
    if name in SPEC2000_PROFILES:
        return SPEC2000_PROFILES[name]
    for key, spec in SPEC2000_PROFILES.items():
        if key.split(".", 1)[-1] == name:
            return spec
    raise KeyError(f"unknown benchmark {name!r}")


def shadows_builtin(name: str) -> bool:
    """True when ``name`` resolves to a built-in profile.

    Workloads declared elsewhere (scenario packs, specs embedded in
    jobs) may not take such a name: resolvers try the built-ins first,
    so the workload would be unreachable by name.
    """
    try:
        spec_profile(name)
    except KeyError:
        return False
    return True

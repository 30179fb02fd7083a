"""Operating points: per-domain cycle time and voltages.

An *operating point* fixes, for every clock domain of the machine (each
cluster, the interconnect, the cache), its maximum-speed cycle time and
its supply/threshold voltages.  The configuration selector (section 3.3)
chooses one operating point per program; the scheduler may then run each
domain at or below its maximum frequency on a per-loop basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.machine.clocking import CACHE_DOMAIN, ICN_DOMAIN, cluster_domain
from repro.units import (
    Frequency,
    Rational,
    Time,
    as_fraction,
    common_quantum,
    frequency_of,
)


@dataclass(frozen=True)
class DomainSetting:
    """Cycle time (ns) and voltages of one clock domain.

    ``cycle_time`` is the fastest period the domain may use at voltage
    ``vdd``; per-loop frequency scaling can only slow the domain down.
    """

    cycle_time: Time
    vdd: float
    vth: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle_time", as_fraction(self.cycle_time))
        if self.cycle_time <= 0:
            raise ConfigurationError(f"cycle time must be positive, got {self.cycle_time}")
        if self.vdd <= 0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd}")
        if not 0 < self.vth < self.vdd:
            raise ConfigurationError(
                f"vth must lie strictly between 0 and vdd, got vth={self.vth}, vdd={self.vdd}"
            )

    @cached_property
    def fmax(self) -> Frequency:
        """Maximum frequency of the domain (GHz)."""
        return frequency_of(self.cycle_time)


@dataclass(frozen=True)
class MachineSpeeds:
    """Just the cycle times of every domain (no voltages).

    The execution-time model (section 3.2) depends only on speeds, so it
    accepts this reduced view; :attr:`OperatingPoint.speeds` projects a
    full operating point down to it.
    """

    cluster_cycle_times: Tuple[Time, ...]
    icn_cycle_time: Time
    cache_cycle_time: Time

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "cluster_cycle_times",
            tuple(as_fraction(ct) for ct in self.cluster_cycle_times),
        )
        object.__setattr__(self, "icn_cycle_time", as_fraction(self.icn_cycle_time))
        object.__setattr__(self, "cache_cycle_time", as_fraction(self.cache_cycle_time))
        if not self.cluster_cycle_times:
            raise ConfigurationError("speeds need at least one cluster")
        if any(ct <= 0 for ct in self.cluster_cycle_times) or (
            self.icn_cycle_time <= 0 or self.cache_cycle_time <= 0
        ):
            raise ConfigurationError("cycle times must be positive")

    @property
    def n_clusters(self) -> int:
        """Number of cluster domains."""
        return len(self.cluster_cycle_times)

    # Derived values are cached in the instance ``__dict__``, outside the
    # dataclass fields, so equality and hashing are unaffected.
    @cached_property
    def fastest_cluster_cycle_time(self) -> Time:
        """Minimum cluster period."""
        return min(self.cluster_cycle_times)

    @cached_property
    def mean_cluster_cycle_time(self) -> Fraction:
        """Arithmetic mean of cluster periods (section 3.2 it_length model)."""
        return sum(self.cluster_cycle_times) / len(self.cluster_cycle_times)

    @cached_property
    def time_quantum(self) -> Fraction:
        """Coarsest quantum dividing every cluster and interconnect period."""
        return common_quantum((*self.cluster_cycle_times, self.icn_cycle_time))

    def domain_cycle_time(self, domain: str) -> Time:
        """Cycle time of a domain by identifier."""
        if domain == ICN_DOMAIN:
            return self.icn_cycle_time
        if domain == CACHE_DOMAIN:
            return self.cache_cycle_time
        for index in range(len(self.cluster_cycle_times)):
            if domain == cluster_domain(index):
                return self.cluster_cycle_times[index]
        raise KeyError(f"unknown clock domain {domain!r}")

    @classmethod
    def uniform(cls, n_clusters: int, cycle_time: Rational) -> "MachineSpeeds":
        """All domains at one speed."""
        period = as_fraction(cycle_time)
        return cls(tuple(period for _ in range(n_clusters)), period, period)


@dataclass(frozen=True)
class OperatingPoint:
    """One voltage/frequency assignment for the whole machine."""

    clusters: Tuple[DomainSetting, ...]
    icn: DomainSetting
    cache: DomainSetting

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigurationError("an operating point needs at least one cluster")

    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        n_clusters: int,
        cycle_time: Rational,
        vdd: float,
        vth: float,
    ) -> "OperatingPoint":
        """Every domain at the same speed and voltages (the paper's
        homogeneous design)."""
        setting = DomainSetting(as_fraction(cycle_time), vdd, vth)
        return cls(
            clusters=tuple(setting for _ in range(n_clusters)),
            icn=setting,
            cache=setting,
        )

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        """Number of cluster domains."""
        return len(self.clusters)

    def setting(self, domain: str) -> DomainSetting:
        """Setting of a domain by identifier (``cluster<i>``/``icn``/``cache``)."""
        if domain == ICN_DOMAIN:
            return self.icn
        if domain == CACHE_DOMAIN:
            return self.cache
        for index in range(len(self.clusters)):
            if domain == cluster_domain(index):
                return self.clusters[index]
        raise KeyError(f"unknown clock domain {domain!r}")

    def cluster_setting(self, index: int) -> DomainSetting:
        """Setting of cluster ``index``."""
        return self.clusters[index]

    def settings_by_domain(self) -> Dict[str, DomainSetting]:
        """Mapping from every domain identifier to its setting."""
        result = {cluster_domain(i): s for i, s in enumerate(self.clusters)}
        result[ICN_DOMAIN] = self.icn
        result[CACHE_DOMAIN] = self.cache
        return result

    # ------------------------------------------------------------------
    @cached_property
    def fastest_cluster_cycle_time(self) -> Time:
        """Cycle time of the fastest cluster (min period)."""
        return min(s.cycle_time for s in self.clusters)

    @property
    def slowest_cluster_cycle_time(self) -> Time:
        """Cycle time of the slowest cluster (max period)."""
        return max(s.cycle_time for s in self.clusters)

    @property
    def mean_cluster_cycle_time(self) -> Fraction:
        """Arithmetic mean of cluster cycle times.

        The section 3.2 execution-time model estimates it_length with this
        mean (assuming half an iteration executes on fast clusters and
        half on slow ones).
        """
        return sum(s.cycle_time for s in self.clusters) / len(self.clusters)

    @property
    def is_homogeneous(self) -> bool:
        """True when every domain shares one cycle time and one vdd."""
        settings = list(self.clusters) + [self.icn, self.cache]
        first = settings[0]
        return all(
            s.cycle_time == first.cycle_time and s.vdd == first.vdd for s in settings
        )

    @cached_property
    def speeds(self) -> MachineSpeeds:
        """The cycle times of this operating point, voltages stripped."""
        return MachineSpeeds(
            cluster_cycle_times=tuple(s.cycle_time for s in self.clusters),
            icn_cycle_time=self.icn.cycle_time,
            cache_cycle_time=self.cache.cycle_time,
        )

    def sorted_cluster_indices_slowest_first(self) -> Tuple[int, ...]:
        """Cluster indices ordered slowest to fastest (stable).

        Recurrence pre-placement walks clusters in this order: critical
        recurrences go to the *slowest* cluster that can still schedule
        them (section 4.1.1).
        """
        return tuple(
            sorted(
                range(len(self.clusters)),
                key=lambda i: (-self.clusters[i].cycle_time, i),
            )
        )

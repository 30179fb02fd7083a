"""The section 3.1.3 energy estimate for arbitrary operating points.

Two entry points:

* :meth:`EnergyModel.estimate` — *measurement path*: per-cluster event
  counts are known (from a real schedule or the simulator),
* :meth:`EnergyModel.estimate_with_distribution` — *model path*: only the
  total instruction count is known and a per-cluster probability vector
  ``p_Ci`` distributes it (this is the formula as printed in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import CalibrationError
from repro.machine.operating_point import OperatingPoint
from repro.power.calibration import CalibratedUnits
from repro.power.scaling import dynamic_scale, static_scale
from repro.power.technology import TechnologyModel


@dataclass(frozen=True)
class EventCounts:
    """Dynamic event counts of one execution (or one estimate).

    ``cluster_energy_units[i]`` is the sum of Table 1 relative energies of
    all instructions executed on cluster ``i``.
    """

    cluster_energy_units: Tuple[float, ...]
    n_comms: float
    n_mem_accesses: float

    def __post_init__(self) -> None:
        if any(u < 0 for u in self.cluster_energy_units):
            raise ValueError("cluster energy units must be non-negative")
        if self.n_comms < 0 or self.n_mem_accesses < 0:
            raise ValueError("event counts must be non-negative")

    @property
    def total_energy_units(self) -> float:
        """Energy units summed over all clusters."""
        return sum(self.cluster_energy_units)

    def merged_with(self, other: "EventCounts") -> "EventCounts":
        """Element-wise sum of two count sets (same cluster count)."""
        if len(self.cluster_energy_units) != len(other.cluster_energy_units):
            raise ValueError("cluster count mismatch")
        return EventCounts(
            tuple(
                a + b
                for a, b in zip(self.cluster_energy_units, other.cluster_energy_units)
            ),
            self.n_comms + other.n_comms,
            self.n_mem_accesses + other.n_mem_accesses,
        )


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy of one execution, split by component and kind."""

    cluster_dynamic: float
    icn_dynamic: float
    cache_dynamic: float
    cluster_static: float
    icn_static: float
    cache_static: float

    @property
    def dynamic(self) -> float:
        """All dynamic energy."""
        return self.cluster_dynamic + self.icn_dynamic + self.cache_dynamic

    @property
    def static(self) -> float:
        """All static energy."""
        return self.cluster_static + self.icn_static + self.cache_static

    @property
    def total(self) -> float:
        """Total energy (in units of the calibrated baseline total)."""
        return self.dynamic + self.static


#: One point's ``(per-cluster, icn, cache)`` delta or sigma scalings.
Scalings = Tuple[Tuple[float, ...], float, float]


class EnergyModel:
    """Applies the delta/sigma scaling to calibrated unit energies."""

    def __init__(self, units: CalibratedUnits, technology: TechnologyModel):
        self._units = units
        self._technology = technology
        # The last point :meth:`estimate` priced, with its scalings, as
        # one tuple so a concurrent caller never pairs a point with
        # another point's scalings.
        self._scaled: Optional[Tuple[OperatingPoint, Scalings, Scalings]] = None

    @property
    def units(self) -> CalibratedUnits:
        """The calibrated unit energies this model applies."""
        return self._units

    # ------------------------------------------------------------------
    def _deltas(self, point: OperatingPoint) -> Scalings:
        ref = self._units.reference
        cluster_deltas = tuple(dynamic_scale(s, ref) for s in point.clusters)
        return cluster_deltas, dynamic_scale(point.icn, ref), dynamic_scale(point.cache, ref)

    def _sigmas(self, point: OperatingPoint) -> Scalings:
        ref = self._units.reference
        slope = self._technology.subthreshold_slope
        cluster_sigmas = tuple(static_scale(s, ref, slope) for s in point.clusters)
        return (
            cluster_sigmas,
            static_scale(point.icn, ref, slope),
            static_scale(point.cache, ref, slope),
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        point: OperatingPoint,
        counts: EventCounts,
        exec_time_ns: float,
    ) -> EnergyEstimate:
        """Energy with known per-cluster event counts (measurement path).

        A point's scalings are derived when it differs (by identity)
        from the last point priced, so metering every loop of a program
        at one point derives them once.
        """
        if len(counts.cluster_energy_units) != point.n_clusters:
            raise CalibrationError(
                "event counts and operating point disagree on cluster count"
            )
        scaled = self._scaled
        if scaled is None or scaled[0] is not point:
            scaled = self._scaled = (point, self._deltas(point), self._sigmas(point))
        _, deltas, sigmas = scaled
        return self.scaled_estimate(deltas, sigmas, counts, exec_time_ns)

    def scaled_estimate(
        self,
        deltas: Scalings,
        sigmas: Scalings,
        counts: EventCounts,
        exec_time_ns: float,
    ) -> EnergyEstimate:
        """:meth:`estimate` from a point's scalings instead of the point.

        ``deltas`` and ``sigmas`` are ``(per-cluster, icn, cache)`` as
        :func:`dynamic_scale` and :func:`static_scale` give them, so a
        caller pricing many points from a few settings scales each
        setting once.
        """
        if exec_time_ns < 0:
            raise ValueError("execution time must be non-negative")
        units = self._units
        cluster_deltas, icn_delta, cache_delta = deltas
        cluster_sigmas, icn_sigma, cache_sigma = sigmas

        cluster_dynamic = units.e_ins_unit * sum(
            delta * events
            for delta, events in zip(cluster_deltas, counts.cluster_energy_units)
        )
        icn_dynamic = icn_delta * units.e_comm * counts.n_comms
        cache_dynamic = cache_delta * units.e_access * counts.n_mem_accesses

        per_cluster_rate = units.static_rate_per_cluster
        cluster_static = exec_time_ns * per_cluster_rate * sum(cluster_sigmas)
        icn_static = exec_time_ns * units.static_rate_icn * icn_sigma
        cache_static = exec_time_ns * units.static_rate_cache * cache_sigma

        return EnergyEstimate(
            cluster_dynamic=cluster_dynamic,
            icn_dynamic=icn_dynamic,
            cache_dynamic=cache_dynamic,
            cluster_static=cluster_static,
            icn_static=icn_static,
            cache_static=cache_static,
        )

    def estimate_with_distribution(
        self,
        point: OperatingPoint,
        total_energy_units: float,
        n_comms: float,
        n_mem_accesses: float,
        exec_time_ns: float,
        cluster_probabilities: Optional[Sequence[float]] = None,
    ) -> EnergyEstimate:
        """Energy with instructions distributed by ``p_Ci`` (model path).

        When ``cluster_probabilities`` is omitted, the paper's section 3.2
        assumption is applied: half the instructions execute on the
        fast(est) clusters and half on the remaining slow ones, uniformly
        within each group; for a homogeneous point the distribution is
        uniform.
        """
        if cluster_probabilities is None:
            cluster_probabilities = default_cluster_distribution(point)
        if len(cluster_probabilities) != point.n_clusters:
            raise CalibrationError("probability vector length != cluster count")
        total_p = sum(cluster_probabilities)
        if abs(total_p - 1.0) > 1e-9:
            raise CalibrationError(f"cluster probabilities sum to {total_p}, not 1")
        counts = EventCounts(
            cluster_energy_units=tuple(
                total_energy_units * p for p in cluster_probabilities
            ),
            n_comms=n_comms,
            n_mem_accesses=n_mem_accesses,
        )
        return self.estimate(point, counts, exec_time_ns)


def default_cluster_distribution(point: OperatingPoint) -> Tuple[float, ...]:
    """The paper's half-fast/half-slow instruction distribution.

    Clusters at the fastest cycle time share probability 1/2; the rest
    share the other 1/2.  With all clusters equally fast the distribution
    degenerates to uniform.
    """
    fastest = point.fastest_cluster_cycle_time
    fast = [i for i, s in enumerate(point.clusters) if s.cycle_time == fastest]
    slow = [i for i in range(point.n_clusters) if i not in fast]
    if not slow:
        return uniform_distribution(point.n_clusters)
    probabilities = [0.0] * point.n_clusters
    for index in fast:
        probabilities[index] = 0.5 / len(fast)
    for index in slow:
        probabilities[index] = 0.5 / len(slow)
    return tuple(probabilities)


def uniform_distribution(n_clusters: int) -> Tuple[float, ...]:
    """Every cluster issues the same share: the homogeneous distribution."""
    return tuple(1.0 / n_clusters for _ in range(n_clusters))

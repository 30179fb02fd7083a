"""The homogeneous scheduler: same engine, single-speed operating point.

The paper's baseline (and its profiling runs) use the same partitioning
and modulo-scheduling machinery with every domain at one frequency and
voltage; this wrapper builds that operating point and delegates.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.machine.operating_point import OperatingPoint
from repro.power.technology import TechnologyModel
from repro.scheduler.heterogeneous import HeterogeneousModuloScheduler
from repro.scheduler.options import SchedulerOptions
from repro.scheduler.schedule import Schedule
from repro.units import Rational, as_fraction


class HomogeneousModuloScheduler:
    """Schedules loops on a homogeneous machine configuration."""

    def __init__(
        self,
        machine: MachineDescription,
        technology: Optional[TechnologyModel] = None,
        options: Optional[SchedulerOptions] = None,
    ):
        self._machine = machine
        self._technology = technology if technology is not None else TechnologyModel()
        self._inner = HeterogeneousModuloScheduler(machine, options)
        self._reference_point: Optional[OperatingPoint] = None

    @property
    def machine(self) -> MachineDescription:
        """The machine this scheduler targets."""
        return self._machine

    @property
    def technology(self) -> TechnologyModel:
        """The technology model in use."""
        return self._technology

    @property
    def options(self) -> SchedulerOptions:
        """The tuning knobs in use."""
        return self._inner.options

    def reference_point(self) -> OperatingPoint:
        """The reference homogeneous operating point (1 GHz, 1 V, 0.25 V).

        Built on first use and kept: the same point every call.
        """
        point = self._reference_point
        if point is None:
            reference = self._technology.reference_setting
            point = self._reference_point = OperatingPoint.homogeneous(
                self._machine.n_clusters,
                reference.cycle_time,
                reference.vdd,
                reference.vth,
            )
        return point

    def point_at(self, cycle_time: Rational, vdd: float) -> OperatingPoint:
        """A homogeneous point at the given speed, Vth from the alpha-power
        law; raises when the point violates the technology margins."""
        setting = self._technology.domain_setting(as_fraction(cycle_time), vdd)
        if setting is None:
            from repro.errors import TechnologyError

            raise TechnologyError(
                f"homogeneous point {cycle_time} ns @ {vdd} V violates margins"
            )
        return OperatingPoint.homogeneous(
            self._machine.n_clusters, setting.cycle_time, setting.vdd, setting.vth
        )

    # ------------------------------------------------------------------
    def schedule(
        self,
        loop: Loop,
        point: Optional[OperatingPoint] = None,
        weights=None,
    ) -> Schedule:
        """Schedule on ``point`` (default: the reference point).

        ``weights`` are the partition energy weights passed through to
        the refinement metric (see
        :class:`repro.scheduler.context.PartitionEnergyWeights`).
        """
        target = point if point is not None else self.reference_point()
        return self._inner.schedule(loop, target, weights=weights)

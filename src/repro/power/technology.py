"""The alpha-power technology model (section 3.3).

The paper relates a component's maximum frequency to its voltages with
the alpha-power law::

    fmax = beta * (Vdd - Vth)**alpha / (CL * Vdd)

``beta`` and ``CL`` never appear separately — only their ratio matters —
so the model carries a single constant ``k = beta / CL``, calibrated so
the reference point (1 GHz at Vdd = 1 V, Vth = 0.25 V) is exact.  Given a
target frequency and a supply voltage, the threshold voltage is solved
from the same formula; the resulting Vth must respect margins that keep
sequential logic safe from metastability and Vth process variation.

The margin constraint in the source text is OCR-damaged; we implement it
as ``margin * Vdd <= Vth <= (1 - margin) * Vdd`` with ``margin = 0.1``
(see DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import TechnologyError
from repro.machine.operating_point import DomainSetting
from repro.units import Frequency, Rational, Time, as_fraction, cycle_time_of


@dataclass(frozen=True)
class TechnologyModel:
    """Process parameters shared by every component of the chip."""

    #: Velocity-saturation exponent of the alpha-power law.
    alpha: float = 1.3
    #: Subthreshold slope in volts per decade of leakage current.
    subthreshold_slope: float = 0.1
    #: Reference operating point: frequency (GHz), Vdd (V), Vth (V).
    reference_frequency: float = 1.0
    reference_vdd: float = 1.0
    reference_vth: float = 0.25
    #: Vth must stay within [margin*Vdd, (1-margin)*Vdd].
    vth_margin: float = 0.1

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise TechnologyError("alpha must be >= 1 (velocity saturation)")
        if not 0 < self.reference_vth < self.reference_vdd:
            raise TechnologyError("reference Vth must lie in (0, reference Vdd)")
        if not 0 < self.vth_margin < 0.5:
            raise TechnologyError("vth margin must lie in (0, 0.5)")

    # ------------------------------------------------------------------
    @cached_property
    def k(self) -> float:
        """The calibrated ``beta / CL`` constant (GHz * V^(1-alpha)).

        Cached in the instance ``__dict__``, outside the dataclass
        fields, so equality and hashing are unaffected.
        """
        overdrive = self.reference_vdd - self.reference_vth
        return self.reference_frequency * self.reference_vdd / overdrive**self.alpha

    def fmax(self, vdd: float, vth: float) -> float:
        """Maximum frequency (GHz) at the given voltages."""
        if vth >= vdd:
            raise TechnologyError(f"vth {vth} must be below vdd {vdd}")
        return self.k * (vdd - vth) ** self.alpha / vdd

    def solve_vth(self, frequency: float, vdd: float) -> float:
        """The Vth making ``frequency`` the exact maximum at ``vdd``.

        Inverts the alpha-power law: ``Vth = Vdd - (f*Vdd/k)**(1/alpha)``.
        Raises :class:`TechnologyError` when the requested frequency is
        unreachable at this supply voltage (Vth would be non-positive).
        """
        if frequency <= 0:
            raise TechnologyError("frequency must be positive")
        overdrive = (frequency * vdd / self.k) ** (1.0 / self.alpha)
        vth = vdd - overdrive
        if vth <= 0:
            raise TechnologyError(
                f"{frequency} GHz is unreachable at Vdd={vdd} V (needs Vth <= 0)"
            )
        return vth

    def vth_within_margins(self, vdd: float, vth: float) -> bool:
        """The metastability/process-variation margin check."""
        return self.vth_margin * vdd <= vth <= (1 - self.vth_margin) * vdd

    # ------------------------------------------------------------------
    def thresholds(
        self, cycle_time: Rational, vdd_grid: Iterable[float]
    ) -> Iterator[Tuple[float, float]]:
        """``(vdd, vth)`` of each grid voltage reaching the target speed.

        In grid order.  The Vth is the *largest* value that still reaches
        the target frequency (higher Vth leaks exponentially less), i.e.
        solved from the alpha-power law with fmax equal to the target.
        Voltages at which the speed is unreachable or the Vth violates
        the margins are skipped.  :meth:`domain_setting` and the section
        3.3 selector's voltage table both read their voltages here.
        """
        num, den = as_fraction(cycle_time).as_integer_ratio()
        frequency = den / num  # exactly float(1 / cycle_time)
        for vdd in vdd_grid:
            try:
                vth = self.solve_vth(frequency, vdd)
            except TechnologyError:
                continue
            if self.vth_within_margins(vdd, vth):
                yield vdd, vth

    def domain_setting(
        self, cycle_time: Rational, vdd: float
    ) -> Optional[DomainSetting]:
        """Build a :class:`DomainSetting` for a target speed at ``vdd``.

        The Vth is the one :meth:`thresholds` solves; returns ``None``
        when the point violates the margins.
        """
        period = as_fraction(cycle_time)
        for vdd, vth in self.thresholds(period, (vdd,)):
            return DomainSetting(cycle_time=period, vdd=vdd, vth=vth)
        return None

    @property
    def reference_setting(self) -> DomainSetting:
        """The reference homogeneous point (1 ns, 1 V, 0.25 V by default)."""
        return DomainSetting(
            cycle_time=cycle_time_of(as_fraction(repr(self.reference_frequency))),
            vdd=self.reference_vdd,
            vth=self.reference_vth,
        )

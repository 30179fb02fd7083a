"""Energy scaling factors under voltage/frequency scaling (sections 3.1.1-3.1.2).

Relative to a reference component with voltages (Vdd0, Vth0):

* dynamic energy per event scales as ``delta = (Vdd / Vdd0)**2``
  (the event still takes the same number of cycles, and
  ``E_dyn = p_t * CL * Vdd**2`` per cycle — frequency cancels),
* static energy per second scales as
  ``sigma = 10**((Vth0 - Vth) / S) * (Vdd / Vdd0)``
  (subthreshold leakage current is exponential in -Vth with slope S,
  and static power is ``I_leak * Vdd``).

:func:`dynamic_ratio` and :func:`static_ratio` are the formulas on plain
floats; :func:`dynamic_scale` and :func:`static_scale` apply them to
:class:`DomainSetting` s, and the section 3.3 selector's voltage table
applies them to its ``(vdd, vth)`` rows.
"""

from __future__ import annotations

from repro.machine.operating_point import DomainSetting


def dynamic_ratio(vdd: float, reference_vdd: float) -> float:
    """``delta`` of a supply voltage, on plain floats."""
    return (vdd / reference_vdd) ** 2


def static_ratio(
    vdd: float,
    vth: float,
    reference_vdd: float,
    reference_vth: float,
    subthreshold_slope: float = 0.1,
) -> float:
    """``sigma`` of a supply/threshold pair, on plain floats."""
    if subthreshold_slope <= 0:
        raise ValueError("subthreshold slope must be positive")
    leak_ratio = 10.0 ** ((reference_vth - vth) / subthreshold_slope)
    return leak_ratio * (vdd / reference_vdd)


def dynamic_scale(setting: DomainSetting, reference: DomainSetting) -> float:
    """``delta``: per-event dynamic energy relative to the reference."""
    return dynamic_ratio(setting.vdd, reference.vdd)


def static_scale(
    setting: DomainSetting,
    reference: DomainSetting,
    subthreshold_slope: float = 0.1,
) -> float:
    """``sigma``: static energy per second relative to the reference."""
    return static_ratio(
        setting.vdd, setting.vth, reference.vdd, reference.vth, subthreshold_slope
    )

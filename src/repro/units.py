"""Exact rational time and frequency arithmetic.

The heterogeneous machine mixes clock domains whose cycle times are related
by small rational factors (the paper uses factors such as 0.95, 1.25 and
1.33 = 4/3).  Every time the public API exposes is a
:class:`fractions.Fraction`, so there is no floating-point epsilon
anywhere in the core.

Legality reasoning runs on an exact **integer time grid** instead:
because ``II_X = IT * f_X`` is integral, the IT and every running cycle
time are whole multiples of their :func:`common_quantum`.  The
scheduler and the schedule validator convert each of them once with
:func:`grid_steps` and then compare and add plain ints; the simulator
runs its events on the same kind of grid.

Conventions used throughout the package:

* time is measured in **nanoseconds**,
* frequency is measured in **GHz** (= 1/ns), so ``f = 1 / cycle_time``
  needs no unit conversion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

#: Anything accepted where an exact rational is required.
Rational = Union[int, str, Fraction]

#: Type alias used in signatures for readability; values are in nanoseconds.
Time = Fraction

#: Type alias used in signatures for readability; values are in GHz.
Frequency = Fraction


def as_fraction(value: Union[Rational, float]) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Integers, strings (``"4/3"``, ``"0.95"``) and Fractions convert
    exactly.  Floats are converted through their shortest ``repr`` so that
    decimal literals such as ``0.9`` become ``9/10`` rather than the
    nearest binary float; pass a string or Fraction for non-decimal values
    like one third.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a rational quantity")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} is not rational")
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def frequency_of(cycle_time: Rational) -> Frequency:
    """Return the frequency (GHz) of a clock with the given period (ns)."""
    period = as_fraction(cycle_time)
    if period <= 0:
        raise ValueError(f"cycle time must be positive, got {period}")
    return Fraction(1) / period


def cycle_time_of(frequency: Rational) -> Time:
    """Return the period (ns) of a clock with the given frequency (GHz)."""
    freq = as_fraction(frequency)
    if freq <= 0:
        raise ValueError(f"frequency must be positive, got {freq}")
    return Fraction(1) / freq


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two positive rationals.

    ``gcd(a/b, c/d) = gcd(a*d, c*b) / (b*d)``; the result is the largest
    rational that divides both arguments an integral number of times.
    """
    if a < 0 or b < 0:
        raise ValueError("fraction_gcd requires non-negative arguments")
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    den = a.denominator * b.denominator
    return Fraction(num, den)


def fraction_lcm(a: Fraction, b: Fraction) -> Fraction:
    """Least common multiple of two positive rationals."""
    if a <= 0 or b <= 0:
        raise ValueError("fraction_lcm requires positive arguments")
    return a * b / fraction_gcd(a, b)


def common_quantum(values: Iterable[Fraction]) -> Fraction:
    """Return the coarsest time quantum dividing every value exactly.

    Used to derive the exact integer time grid of a set of clock-domain
    periods: every domain edge falls on a multiple of the quantum.  Over
    the common denominator ``L`` of the values this is
    ``gcd(v_i * L) / L``, computed on ints.
    """
    ratios = [as_fraction(value).as_integer_ratio() for value in values]
    if any(num < 0 for num, _den in ratios):
        raise ValueError("common_quantum requires non-negative values")
    common = math.lcm(*(den for _num, den in ratios))
    num = math.gcd(*(num * (common // den) for num, den in ratios))
    if num == 0:
        raise ValueError("common_quantum needs at least one non-zero value")
    return Fraction(num, common)


def grid_steps(value: Fraction, quantum: Fraction) -> int:
    """``value / quantum`` as an exact integer (raises off the grid).

    Integers and Fractions divide by cross-multiplication, without
    building the quotient :class:`Fraction`.
    """
    num, den = value.as_integer_ratio()
    q_num, q_den = quantum.as_integer_ratio()
    steps, rest = divmod(num * q_den, den * q_num)
    if rest:
        raise ValueError(f"{value} is not a multiple of the quantum {quantum}")
    return steps


def is_integral(value: Fraction) -> bool:
    """True when ``value`` is an exact integer."""
    return value.denominator == 1


def ceil_div(value: Fraction, unit: Fraction) -> int:
    """Smallest integer ``k`` with ``k * unit >= value`` (units positive).

    Integer and Fraction inputs take a pure-integer path (``ceil(a/b) =
    -(-a // b)`` on cross-multiplied numerators) instead of constructing
    and normalising intermediate :class:`Fraction` ratios.
    """
    if isinstance(value, (int, Fraction)) and isinstance(unit, (int, Fraction)):
        num = value.numerator * unit.denominator
        den = value.denominator * unit.numerator
        if den <= 0:
            raise ValueError("unit must be positive")
        return -((-num) // den)
    if unit <= 0:
        raise ValueError("unit must be positive")
    ratio = as_fraction(value) / unit
    return math.ceil(ratio)


def floor_div(value: Fraction, unit: Fraction) -> int:
    """Largest integer ``k`` with ``k * unit <= value`` (units positive).

    Same pure-integer fast path as :func:`ceil_div`.
    """
    if isinstance(value, (int, Fraction)) and isinstance(unit, (int, Fraction)):
        num = value.numerator * unit.denominator
        den = value.denominator * unit.numerator
        if den <= 0:
            raise ValueError("unit must be positive")
        return num // den
    if unit <= 0:
        raise ValueError("unit must be positive")
    ratio = as_fraction(value) / unit
    return math.floor(ratio)


def format_time(value: Fraction, digits: int = 4) -> str:
    """Human-readable rendering of a time in nanoseconds."""
    return f"{float(value):.{digits}g} ns"


def format_frequency(value: Fraction, digits: int = 4) -> str:
    """Human-readable rendering of a frequency in GHz."""
    return f"{float(value):.{digits}g} GHz"

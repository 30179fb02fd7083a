"""Clock domains and supported-frequency palettes.

The heterogeneous machine is a multi-clock-domain design (section 2.1):
each cluster, the interconnect and the memory hierarchy are separate
domains.  A clock-generation network derives each domain's clock from a
general clock through multipliers and dividers, so only a limited set of
frequencies may be available — Figure 7 studies palettes of any/16/8/4
frequencies.

For a loop with initiation time ``IT`` a domain must run at a frequency
``f`` with ``II = f * IT`` a positive integer (all domains re-align every
IT).  :meth:`FrequencyPalette.select_pair` finds the fastest such ``f``
not exceeding the domain's maximum frequency; when none exists, the
scheduler must increase the IT (*synchronisation problem*).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from repro.units import Frequency, Rational, Time, as_fraction, is_integral

#: Identifier of the interconnect clock domain.
ICN_DOMAIN = "icn"
#: Identifier of the memory-hierarchy clock domain.
CACHE_DOMAIN = "cache"


def cluster_domain(index: int) -> str:
    """Clock-domain identifier of cluster ``index``."""
    return f"cluster{index}"


def domain_ids(n_clusters: int) -> Tuple[str, ...]:
    """All domain identifiers of an ``n_clusters``-cluster machine."""
    return tuple(cluster_domain(i) for i in range(n_clusters)) + (
        ICN_DOMAIN,
        CACHE_DOMAIN,
    )


@dataclass(frozen=True)
class FrequencyPalette:
    """The set of frequencies the clock network can produce.

    Three flavours:

    * ``frequencies=None, per_domain_size=None`` — an unconstrained
      network ("any frequency" in Figure 7),
    * ``frequencies=(...)`` — one *global* finite set shared by every
      domain,
    * ``per_domain_size=K`` — each domain owns a divider chain off its
      own maximum-frequency clock (the Figure 2 organisation: one
      multiplier/divider network and multiplexer per component), so the
      domain's supported set is ``{fmax * k / K : k = 1..K}``.  This is
      the model behind the Figure 7 sweep.
    """

    frequencies: Optional[Tuple[Frequency, ...]] = None
    per_domain_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.frequencies is not None and self.per_domain_size is not None:
            raise ValueError(
                "a palette is either a global set or per-domain, not both"
            )
        if self.per_domain_size is not None and self.per_domain_size < 1:
            raise ValueError("per-domain palette size must be >= 1")
        if self.frequencies is not None:
            if not self.frequencies:
                raise ValueError("a finite palette needs at least one frequency")
            if any(f <= 0 for f in self.frequencies):
                raise ValueError("palette frequencies must be positive")
            if list(self.frequencies) != sorted(set(self.frequencies)):
                raise ValueError("palette frequencies must be sorted and distinct")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def any_frequency(cls) -> "FrequencyPalette":
        """Unconstrained clock generation."""
        return cls(None)

    @classmethod
    def uniform(cls, count: int, top: Rational) -> "FrequencyPalette":
        """``count`` evenly spaced frequencies ``top * k / count``.

        This is the palette family used for the Figure 7 sweep: the
        generated frequencies divide the top frequency's multiples, so
        slow ITs always synchronise.
        """
        if count < 1:
            raise ValueError("palette size must be >= 1")
        top_f = as_fraction(top)
        return cls(tuple(top_f * Fraction(k, count) for k in range(1, count + 1)))

    @classmethod
    def per_domain_uniform(cls, count: int) -> "FrequencyPalette":
        """Each domain supports ``count`` even fractions of its own fmax."""
        return cls(None, per_domain_size=count)

    @classmethod
    def from_divider_network(
        cls,
        generator: Rational,
        multipliers: Iterable[int] = (1,),
        dividers: Iterable[int] = (1,),
    ) -> "FrequencyPalette":
        """Frequencies ``generator * m / d`` for the given m, d sets."""
        gen = as_fraction(generator)
        values = sorted(
            {gen * Fraction(m, d) for m in multipliers for d in dividers}
        )
        return cls(tuple(values))

    # ------------------------------------------------------------------
    @property
    def is_any(self) -> bool:
        """True when the palette is unconstrained."""
        return self.frequencies is None and self.per_domain_size is None

    @property
    def is_per_domain(self) -> bool:
        """True when each domain carries its own fmax-anchored ladder."""
        return self.per_domain_size is not None

    def __len__(self) -> int:
        if self.per_domain_size is not None:
            return self.per_domain_size
        return 0 if self.frequencies is None else len(self.frequencies)

    def admissible(self, fmax: Frequency) -> Tuple[Frequency, ...]:
        """Palette frequencies not exceeding ``fmax`` (finite palettes)."""
        if self.frequencies is None:
            raise ValueError("an unconstrained palette has no finite listing")
        return tuple(f for f in self.frequencies if f <= fmax)

    def select_pair(
        self, it: Time, fmax: Frequency
    ) -> Optional[Tuple[Frequency, int]]:
        """Fastest legal (frequency, II) pair for a domain at this IT.

        Returns ``None`` when no supported frequency at or below ``fmax``
        yields an integral ``II >= 1`` — the synchronisation failure that
        forces the scheduler to increase the IT.
        """
        it_num, it_den = as_fraction(it).as_integer_ratio()
        f_num, f_den = as_fraction(fmax).as_integer_ratio()
        if it_num <= 0 or f_num <= 0:
            raise ValueError("IT and fmax must be positive")
        if self.is_any:
            ii = (it_num * f_num) // (it_den * f_den)
            if ii < 1:
                return None
            return (Fraction(ii * it_den, it_num), ii)
        it = as_fraction(it)
        fmax = as_fraction(fmax)
        if self.per_domain_size is not None:
            size = self.per_domain_size
            for k in range(size, 0, -1):
                freq = fmax * Fraction(k, size)
                ii = freq * it
                if is_integral(ii) and ii >= 1:
                    return (freq, int(ii))
            return None
        for freq in reversed(self.frequencies):
            if freq > fmax:
                continue
            ii = freq * it
            if is_integral(ii) and ii >= 1:
                return (freq, int(ii))
        return None

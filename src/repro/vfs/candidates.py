"""The explored design space (section 5 parameters)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import as_fraction


def volt_grid(low: float, high: float, step: float = 0.05) -> Tuple[float, ...]:
    """An inclusive voltage grid, rounded to millivolts to avoid FP drift."""
    if low > high:
        raise ConfigurationError(f"empty voltage grid [{low}, {high}]")
    if step <= 0:
        raise ConfigurationError("voltage step must be positive")
    values = []
    current = low
    while current <= high + 1e-9:
        values.append(round(current, 3))
        current += step
    return tuple(values)


@dataclass(frozen=True)
class DesignSpaceSpec:
    """Grids walked by the configuration selector.

    Defaults reproduce the paper's section 5: fast-cluster cycle times of
    {0.9, 0.95, 1, 1.05, 1.1} times the reference, slow clusters at
    {1, 1.25, 1.33, 1.5} times the fast ones, one fast cluster, and
    supply ranges of 0.7-1.2 V (clusters), 0.8-1.1 V (ICN) and 1.0-1.4 V
    (cache).  The cache and ICN always run at the fastest cluster's
    frequency (section 5's design decision).
    """

    fast_factors: Tuple[Fraction, ...] = (
        Fraction(9, 10),
        Fraction(19, 20),
        Fraction(1),
        Fraction(21, 20),
        Fraction(11, 10),
    )
    slow_over_fast: Tuple[Fraction, ...] = (
        Fraction(1),
        Fraction(5, 4),
        Fraction(4, 3),
        Fraction(3, 2),
    )
    n_fast_options: Tuple[int, ...] = (1,)
    cluster_vdd_grid: Tuple[float, ...] = volt_grid(0.7, 1.2)
    icn_vdd_grid: Tuple[float, ...] = volt_grid(0.8, 1.1)
    cache_vdd_grid: Tuple[float, ...] = volt_grid(1.0, 1.4)
    #: Voltages a fully homogeneous design may use: one value must be legal
    #: for every component, so the default is the intersection of the three
    #: per-component ranges.
    homogeneous_vdd_grid: Tuple[float, ...] = volt_grid(1.0, 1.1)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fast_factors", tuple(as_fraction(f) for f in self.fast_factors)
        )
        object.__setattr__(
            self, "slow_over_fast", tuple(as_fraction(f) for f in self.slow_over_fast)
        )
        for label, grid in (
            ("fast_factors", self.fast_factors),
            ("slow_over_fast", self.slow_over_fast),
            ("n_fast_options", self.n_fast_options),
            ("cluster_vdd_grid", self.cluster_vdd_grid),
            ("icn_vdd_grid", self.icn_vdd_grid),
            ("cache_vdd_grid", self.cache_vdd_grid),
            ("homogeneous_vdd_grid", self.homogeneous_vdd_grid),
        ):
            if not grid:
                raise ConfigurationError(f"design-space grid {label} is empty")
        if any(f <= 0 for f in self.fast_factors):
            raise ConfigurationError("fast factors must be positive")
        if any(r < 1 for r in self.slow_over_fast):
            raise ConfigurationError("slow clusters cannot be faster than fast ones")
        if any(n < 1 for n in self.n_fast_options):
            raise ConfigurationError("need at least one fast cluster")

    @classmethod
    def paper(cls) -> "DesignSpaceSpec":
        """The section 5 design space.

        A spec is immutable, so it is built once per process and shared.
        """
        return _paper_spec(cls)

    def homogeneous_factors(self) -> Tuple[Fraction, ...]:
        """Cycle-time factors explored for the homogeneous baseline.

        All products ``fast * ratio``: the same cycle times heterogeneity
        can reach, so the baseline is not handicapped.
        """
        values = sorted(
            {fast * ratio for fast in self.fast_factors for ratio in self.slow_over_fast}
        )
        return tuple(values)

    def structures(self):
        """All (n_fast, fast factor, slow/fast ratio) combinations.

        A ratio of 1 collapses every (n_fast) choice into the same
        machine, so it is emitted once with ``n_fast`` equal to the first
        option.
        """
        emitted_ratio_one = set()
        for n_fast in self.n_fast_options:
            for fast in self.fast_factors:
                for ratio in self.slow_over_fast:
                    if ratio == 1:
                        if fast in emitted_ratio_one:
                            continue
                        emitted_ratio_one.add(fast)
                    yield n_fast, fast, ratio


@functools.lru_cache(maxsize=None)
def _paper_spec(cls) -> DesignSpaceSpec:
    """:meth:`DesignSpaceSpec.paper`, built."""
    return cls()

"""DDG edges: data dependences with latency and iteration distance."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.ir.operation import Operation


class DepKind(enum.Enum):
    """Kind of dependence between two operations."""

    #: True (read-after-write) register dependence; the consumer must wait
    #: for the producer's full latency.
    FLOW = "flow"
    #: Write-after-read; the writer may issue in the same cycle the reader
    #: issues (delay 0).
    ANTI = "anti"
    #: Write-after-write; the second writer must issue strictly later
    #: (delay 1).
    OUTPUT = "output"
    #: Memory ordering edge (e.g. store -> load may-alias); the consumer
    #: must wait for the producer's full latency, but no register value is
    #: communicated, so crossing clusters needs no copy.
    MEMORY = "memory"


@dataclass(frozen=True)
class Dependence:
    """A directed dependence ``src -> dst``.

    ``distance`` is the iteration distance (omega): the dependence is from
    iteration ``i`` of ``src`` to iteration ``i + distance`` of ``dst``.
    ``latency_override`` replaces the instruction-table latency of ``src``
    when the edge needs a non-default delay.
    """

    src: Operation
    dst: Operation
    distance: int = 0
    kind: DepKind = DepKind.FLOW
    latency_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError(f"iteration distance must be >= 0, got {self.distance}")
        if self.latency_override is not None and self.latency_override < 0:
            raise ValueError("latency override must be >= 0")
        # The hash the dataclass would compute on every lookup, computed
        # once: the same value, so set and dict orders are unchanged.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (self.src, self.dst, self.distance, self.kind, self.latency_override)
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through ``__init__``, so the hash is recomputed in the
        # receiving process (an Enum's hash depends on PYTHONHASHSEED).
        return (
            type(self),
            (self.src, self.dst, self.distance, self.kind, self.latency_override),
        )

    @property
    def is_loop_carried(self) -> bool:
        """True when the dependence crosses an iteration boundary."""
        return self.distance > 0

    @property
    def carries_value(self) -> bool:
        """True when a register value travels along the edge.

        Only such edges require an inter-cluster copy when their endpoints
        are assigned to different clusters, and only they create register
        lifetimes.
        """
        return self.kind is DepKind.FLOW and self.src.opclass.writes_register

    def delay_cycles(self, producer_latency: int) -> int:
        """Scheduling delay of the edge, in cycles of the producer's clock.

        ``producer_latency`` is the instruction-table latency of ``src``.
        """
        if self.latency_override is not None:
            return self.latency_override
        if self.kind is DepKind.ANTI:
            return 0
        if self.kind is DepKind.OUTPUT:
            return 1
        return producer_latency

    def __repr__(self) -> str:
        extra = f", omega={self.distance}" if self.distance else ""
        if self.kind is not DepKind.FLOW:
            extra += f", kind={self.kind.name}"
        if self.latency_override is not None:
            extra += f", lat={self.latency_override}"
        return f"Dependence({self.src.name} -> {self.dst.name}{extra})"

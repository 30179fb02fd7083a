"""Function-unit kinds and the operation-class -> FU mapping."""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional

from repro.ir.opcodes import Domain, OpClass


class FUType(enum.Enum):
    """Resource kinds inside a cluster."""

    INT = "int"
    FP = "fp"
    MEM = "mem"

    def __lt__(self, other: "FUType") -> bool:
        return self.value < other.value


def _fu_for_uncached(opclass: OpClass) -> Optional[FUType]:
    if opclass.is_memory:
        return FUType.MEM
    if opclass is OpClass.COPY:
        return None
    if opclass.domain is Domain.FP:
        return FUType.FP
    return FUType.INT


#: The opclass -> FU mapping is total and immutable, so the hot path is a
#: single dict lookup instead of enum-property chains.
_FU_FOR: dict = {oc: _fu_for_uncached(oc) for oc in OpClass}

#: Dense integer codes for the FU kinds, in ``FUType`` declaration order.
#: Hot loops index preallocated arrays with these instead of hashing enums.
FU_INDEX: dict = {FUType.INT: 0, FUType.FP: 1, FUType.MEM: 2}

#: Number of FU kinds (length of arrays indexed by :data:`FU_INDEX`).
N_FU_KINDS = len(FU_INDEX)

#: opclass -> dense FU code, or -1 when the class occupies no cluster FU.
FU_CODE: dict = {
    oc: (FU_INDEX[fu] if fu is not None else -1) for oc, fu in _FU_FOR.items()
}

#: FU kinds by dense code (inverse of :data:`FU_INDEX`).
FU_BY_CODE = (FUType.INT, FUType.FP, FUType.MEM)


def fu_for(opclass: OpClass) -> Optional[FUType]:
    """The function unit an operation occupies, or ``None``.

    Memory operations occupy a memory port; FP-domain operations the FP
    unit; remaining INT-domain operations (including branches) the integer
    unit.  Copies occupy a bus slot, not a cluster FU, so they map to
    ``None`` here.
    """
    return _FU_FOR[opclass]


def fu_demand(class_counts: Mapping[OpClass, int]) -> Dict[FUType, int]:
    """Per-FU-type instruction counts of a loop body (copies excluded)."""
    demand: Dict[FUType, int] = {fu: 0 for fu in FUType}
    for opclass, count in class_counts.items():
        fu = fu_for(opclass)
        if fu is not None:
            demand[fu] += count
    return demand

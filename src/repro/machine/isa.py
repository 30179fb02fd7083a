"""Instruction latency and energy table (the paper's Table 1).

Latencies are in cycles *of the executing cluster's clock* (an
instruction takes the same number of cycles regardless of the cluster's
frequency — section 3.1.1).  Energies are relative to one integer add
executed at the reference voltage; the heterogeneous energy model scales
them by the per-cluster dynamic factor delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from repro.ir.opcodes import Domain, OpCategory, OpClass


@dataclass(frozen=True)
class ClassEntry:
    """Latency (cycles) and relative dynamic energy of one instruction class."""

    latency: int
    energy: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.energy < 0:
            raise ValueError("energy must be >= 0")


#: Table 1 of the paper: (category, domain) -> (latency, energy rel. int add).
PAPER_TABLE_1: Mapping[Tuple[OpCategory, Domain], ClassEntry] = {
    (OpCategory.MEMORY, Domain.INT): ClassEntry(2, 1.0),
    (OpCategory.MEMORY, Domain.FP): ClassEntry(2, 1.0),
    (OpCategory.ARITH, Domain.INT): ClassEntry(1, 1.0),
    (OpCategory.ARITH, Domain.FP): ClassEntry(3, 1.2),
    (OpCategory.MULTIPLY, Domain.INT): ClassEntry(2, 1.1),
    (OpCategory.MULTIPLY, Domain.FP): ClassEntry(6, 1.5),
    (OpCategory.DIVIDE, Domain.INT): ClassEntry(6, 1.4),
    (OpCategory.DIVIDE, Domain.FP): ClassEntry(18, 2.0),
}


class InstructionTable:
    """Latency/energy lookup for every :class:`OpClass`.

    The default table is the paper's Table 1 plus the architectural
    classes: a branch behaves as an integer arith op, and a copy has the
    bus transfer latency (owned by the interconnect model), so its entry
    here carries latency 1 and the energy of one communication is modelled
    separately.

    ``uniform_energy=True`` collapses all compute energies to 1.0 — the
    simplification the paper describes in section 3.1 before mentioning
    the per-class enhancement (we default to the enhanced, per-class
    model).
    """

    def __init__(
        self,
        entries: Mapping[OpClass, ClassEntry],
    ):
        missing = [oc for oc in OpClass if oc not in entries]
        if missing:
            raise ValueError(f"instruction table is missing classes: {missing}")
        self._entries: Dict[OpClass, ClassEntry] = dict(entries)
        #: The table is immutable, so its hash is computed once.
        self._hash = hash(tuple(self.rows()))

    @classmethod
    def paper_defaults(cls, uniform_energy: bool = False) -> "InstructionTable":
        """Table 1 defaults; optionally with class energies collapsed to 1."""
        entries: Dict[OpClass, ClassEntry] = {}
        for opclass in OpClass:
            if opclass is OpClass.COPY:
                entries[opclass] = ClassEntry(1, 0.0)
            elif opclass is OpClass.BRANCH:
                entries[opclass] = ClassEntry(1, 1.0)
            else:
                entries[opclass] = PAPER_TABLE_1[(opclass.category, opclass.domain)]
        if uniform_energy:
            entries = {
                oc: ClassEntry(entry.latency, 1.0 if entry.energy > 0 else 0.0)
                for oc, entry in entries.items()
            }
        return cls(entries)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{oc.value}: {entry!r}" for oc, entry in self.rows()
        )
        return f"InstructionTable({{{entries}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstructionTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a string hash differs between
        # processes, so the cached hash must not travel in a pickle.
        return (InstructionTable, (self._entries,))

    def latency(self, opclass: OpClass) -> int:
        """Latency in cycles of the executing component's clock."""
        return self._entries[opclass].latency

    def energy(self, opclass: OpClass) -> float:
        """Dynamic energy relative to an integer add at reference voltage."""
        return self._entries[opclass].energy

    def entry(self, opclass: OpClass) -> ClassEntry:
        """The full (latency, energy) entry for one class."""
        return self._entries[opclass]

    def with_entry(self, opclass: OpClass, entry: ClassEntry) -> "InstructionTable":
        """A copy of this table with one class overridden."""
        entries = dict(self._entries)
        entries[opclass] = entry
        return InstructionTable(entries)

    def rows(self) -> Iterable[Tuple[OpClass, ClassEntry]]:
        """All (class, entry) pairs in OpClass declaration order."""
        return [(oc, self._entries[oc]) for oc in OpClass]

    def weighted_instruction_energy(self, class_counts: Mapping[OpClass, int]) -> float:
        """Sum of per-class energies weighted by counts (compute ops only)."""
        return sum(
            self._entries[oc].energy * count for oc, count in class_counts.items()
        )

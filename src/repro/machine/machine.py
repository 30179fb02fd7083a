"""Whole-machine description."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.machine.cluster import ClusterConfig
from repro.machine.fu import FUType
from repro.machine.interconnect import InterconnectConfig
from repro.machine.isa import InstructionTable
from repro.machine.memory import MemoryConfig


@dataclass(frozen=True)
class MachineDescription:
    """Static resources of a clustered VLIW machine.

    This captures everything that does not change with the operating
    point: cluster composition, bus count and latency, memory hierarchy
    and the instruction table.  Voltages and frequencies live in
    :class:`repro.machine.operating_point.OperatingPoint`.
    """

    clusters: Tuple[ClusterConfig, ...]
    interconnect: InterconnectConfig = InterconnectConfig()
    memory: MemoryConfig = MemoryConfig()
    isa: InstructionTable = field(default_factory=InstructionTable.paper_defaults)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigurationError("a machine needs at least one cluster")
        if len(self.clusters) > 1 and self.interconnect.n_buses < 1:
            raise ConfigurationError(
                "a multi-cluster machine needs at least one register bus"
            )

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    def cluster(self, index: int) -> ClusterConfig:
        """The configuration of cluster ``index``."""
        return self.clusters[index]

    def total_fu_count(self, fu: FUType) -> int:
        """Units of one FU type across all clusters."""
        return sum(cluster.fu_count(fu) for cluster in self.clusters)

    def fu_totals(self) -> Dict[FUType, int]:
        """Machine-wide FU counts, keyed by type."""
        return {fu: self.total_fu_count(fu) for fu in FUType}

    @property
    def total_registers(self) -> int:
        """Registers across all clusters."""
        return sum(cluster.n_regs for cluster in self.clusters)


@lru_cache(maxsize=32)
def paper_machine(
    n_buses: int = 1,
    n_clusters: int = 4,
    uniform_energy: bool = False,
) -> MachineDescription:
    """The machine evaluated in the paper (section 5).

    Four identical clusters of 1 INT FU + 1 FP FU + 1 memory port + 16
    registers, single-cycle register buses (1 or 2), shared always-hit
    memory, Table 1 latencies/energies.  A description is immutable, so
    each variant is built once per process and shared (the 32 most
    recently used variants are kept).
    """
    return MachineDescription(
        clusters=tuple(ClusterConfig() for _ in range(n_clusters)),
        interconnect=InterconnectConfig(n_buses=n_buses, latency=1),
        memory=MemoryConfig(),
        isa=InstructionTable.paper_defaults(uniform_energy=uniform_energy),
    )

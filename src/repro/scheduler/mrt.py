"""Modulo reservation tables.

One table per cluster (rows = that cluster's II, columns = its FU
instances) and one for the register buses (rows = the interconnect's II,
capacity = bus count).  Slots remember their occupant so the kernel can
evict.

The store is flat and preallocated: per resource kind, an occupancy-count
array (the kernel's probe loop reads only this) plus a parallel list of
per-row occupant lists.  Probe is a pair of list indexings; reserve,
release and evict touch one row — no dict lookups, no tuple keys, no
allocation on the probe path.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.errors import SchedulingError
from repro.machine.cluster import ClusterConfig


class ModuloReservationTable:
    """A modulo reservation table with named resource kinds.

    ``capacities`` maps each resource kind to the number of instances
    available per row.  Reservations are keyed by ``(cycle % ii, kind)``
    and store the occupying token (an operation or a copy).
    """

    __slots__ = ("_ii", "_capacities", "_counts", "_occupants")

    def __init__(self, ii: int, capacities: Dict[Hashable, int]):
        if ii < 1:
            raise SchedulingError(f"reservation table needs II >= 1, got {ii}")
        self._ii = ii
        self._capacities = dict(capacities)
        #: kind -> per-row occupancy counts (preallocated, length ii).
        self._counts: Dict[Hashable, List[int]] = {
            kind: [0] * ii for kind in self._capacities
        }
        #: kind -> per-row occupant lists (parallel to ``_counts``).
        self._occupants: Dict[Hashable, List[List[object]]] = {
            kind: [[] for _ in range(ii)] for kind in self._capacities
        }

    def _rows(self, kind: Hashable) -> Tuple[List[int], List[List[object]]]:
        """Count/occupant arrays of ``kind``, created on first touch.

        Kinds outside ``capacities`` have capacity 0 but may still be
        queried (occupancy/is_free), matching the old dict semantics.
        """
        counts = self._counts.get(kind)
        if counts is None:
            counts = [0] * self._ii
            self._counts[kind] = counts
            self._occupants[kind] = [[] for _ in range(self._ii)]
        return counts, self._occupants[kind]

    @property
    def ii(self) -> int:
        """Number of rows."""
        return self._ii

    def capacity(self, kind: Hashable) -> int:
        """Instances of ``kind`` available per row."""
        return self._capacities.get(kind, 0)

    def occupancy(self, cycle: int, kind: Hashable) -> int:
        """Tokens currently holding ``kind`` at this row."""
        counts = self._counts.get(kind)
        if counts is None:
            return 0
        return counts[cycle % self._ii]

    def is_free(self, cycle: int, kind: Hashable) -> bool:
        """True when a reservation at this (cycle, kind) would succeed."""
        counts = self._counts.get(kind)
        if counts is None:
            return self._capacities.get(kind, 0) > 0
        return counts[cycle % self._ii] < self._capacities.get(kind, 0)

    def occupants(self, cycle: int, kind: Hashable) -> Tuple[object, ...]:
        """Tokens occupying the row (for eviction decisions)."""
        occupants = self._occupants.get(kind)
        if occupants is None:
            return ()
        return tuple(occupants[cycle % self._ii])

    def reserve(self, cycle: int, kind: Hashable, token: object) -> None:
        """Take one instance; raises when the row is full."""
        counts, occupants = self._rows(kind)
        row = cycle % self._ii
        if counts[row] >= self._capacities.get(kind, 0):
            raise SchedulingError(
                f"no free {kind} slot at modulo cycle {row}"
            )
        counts[row] += 1
        occupants[row].append(token)

    def release(self, cycle: int, kind: Hashable, token: object) -> None:
        """Return the instance held by ``token``; raises when absent."""
        row = cycle % self._ii
        occupants = self._occupants.get(kind)
        if occupants is not None:
            holders = occupants[row]
            for index, occupant in enumerate(holders):
                if occupant is token:
                    del holders[index]
                    self._counts[kind][row] -= 1
                    return
        raise SchedulingError(
            f"token {token!r} holds no {kind} slot at {(row, kind)}"
        )

    def force_reserve(self, cycle: int, kind: Hashable, token: object) -> Tuple[object, ...]:
        """Evict every occupant of the row, reserve it for ``token``.

        Returns the evicted tokens (callers must un-place them).
        """
        if self.capacity(kind) < 1:
            raise SchedulingError(f"resource kind {kind} has no instances")
        counts, occupants = self._rows(kind)
        row = cycle % self._ii
        evicted = tuple(occupants[row])
        occupants[row] = [token]
        counts[row] = 1
        return evicted


def cluster_mrt(cluster: ClusterConfig, ii: int) -> ModuloReservationTable:
    """Reservation table of one cluster.

    Kinds are the dense FU codes of :data:`repro.machine.fu.FU_INDEX`,
    so a probe hashes a small int rather than an enum member.
    """
    return ModuloReservationTable(ii, dict(enumerate(cluster.fu_counts_by_code)))


#: Resource-kind token for bus slots.
BUS = "bus"


def bus_mrt(n_buses: int, ii: int) -> ModuloReservationTable:
    """Reservation table of the register buses."""
    return ModuloReservationTable(ii, {BUS: n_buses})

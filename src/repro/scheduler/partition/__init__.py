"""Cluster assignment by multilevel graph partitioning (section 4.1).

The phase functions stay in their submodules (``coarsen.coarsen``,
``refine.refine``): re-exporting them here would shadow the submodules
of the same name.
"""

from repro.scheduler.partition.partition import Partition
from repro.scheduler.partition.coarsen import (
    CoarseningResult,
    preplace_recurrences,
)
from repro.scheduler.partition.driver import build_partition

__all__ = [
    "Partition",
    "CoarseningResult",
    "preplace_recurrences",
    "build_partition",
]

"""Distributed worker fleet: lease-based job queue and worker protocol.

The fleet layer scales job execution past one host.  Its core is the
transport-agnostic :class:`~repro.fleet.queue.LeaseQueue` (pending →
leased → done/failed with TTL expiry, work stealing and bounded retry);
:class:`~repro.fleet.coordinator.FleetCoordinator` wraps one for the
HTTP service and for each campaign (worker registry, metrics, store
write-through), :class:`~repro.fleet.local.LocalWorkers` drains it with
this host's slots, and :class:`~repro.fleet.worker.FleetWorker` is the
pull-execute-complete loop behind ``python -m repro worker``.  See
``docs/fleet.md``.
"""

from repro.fleet.coordinator import (
    FleetCoordinator,
    WorkerInfo,
    default_worker_id,
)
from repro.fleet.local import LOCAL_WORKER, LocalWorkers
from repro.fleet.queue import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    FleetError,
    LeaseGrant,
    LeaseQueue,
    error_payload,
)
from repro.fleet.worker import FleetWorker, WorkerStats, sleep_runner

__all__ = [
    "DONE",
    "FAILED",
    "LEASED",
    "LOCAL_WORKER",
    "PENDING",
    "FleetCoordinator",
    "FleetError",
    "FleetWorker",
    "LeaseGrant",
    "LeaseQueue",
    "LocalWorkers",
    "WorkerInfo",
    "WorkerStats",
    "default_worker_id",
    "error_payload",
    "sleep_runner",
]

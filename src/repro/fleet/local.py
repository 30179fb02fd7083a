"""This host's fleet workers: N slots leasing from a coordinator as ``local``.

``serve --jobs N`` and every :func:`~repro.campaign.executor.run_campaign`
drain their :class:`~repro.fleet.coordinator.FleetCoordinator` with
:class:`LocalWorkers`; other hosts run
:class:`~repro.fleet.worker.FleetWorker` over HTTP.

A child that dies (OOM kill, segfault, ``os._exit``) costs only the grant
its slot held: that grant completes as a captured "worker died" failure
and the slot spawns a fresh child for its next job.  The grant is not
handed back through ``release``, which un-counts the attempt, so a job
that kills its worker cannot circulate forever.  Local leases never
expire: a slot lives exactly as long as the queue it leases from.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import traceback
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.queue import LeaseGrant, error_payload, stamp_traced
from repro.telemetry import enable_tracing, get_logger, tracing_enabled

_log = get_logger("fleet")

#: The worker id every local slot leases under.
LOCAL_WORKER = "local"

#: Queue events after which a pending job may be waiting for a slot.
_WAKE_EVENTS = frozenset({"submitted", "requeued", "released"})


def _execute_in_child(
    job_data: Dict[str, Any], loop_dir: Optional[str], traced: bool
) -> Dict[str, Any]:
    """One job in a slot's child; a traced grant turns tracing on so the
    payload carries the job's span tree back."""
    if traced:
        enable_tracing()
    from repro.campaign import executor

    return executor.execute_job_payload(job_data, loop_dir)


class LocalWorkers:
    """``slots`` workers, each leasing and running one job at a time.

    ``execute(job_data, loop_dir)`` runs jobs on threads of this
    process; without it each slot owns a single-process executor running
    :func:`~repro.campaign.executor.execute_job_payload`, started by a
    forkserver (forking this process would copy its threads' state) and
    initialised with ``loop_dir`` and this process's tracing switch.
    Jobs carry their machine and workload, so a child needs nothing
    else.  Slots wake on submission.  Start and close on the event loop.
    """

    def __init__(
        self,
        coordinator: FleetCoordinator,
        slots: int,
        loop_dir: Optional[str] = None,
        execute: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        self._coordinator = coordinator
        self._slots = max(1, slots)
        self._loop_dir = loop_dir
        self._execute = execute
        self._threads: Optional[ThreadPoolExecutor] = None
        self._children: List[Optional[Executor]] = [None] * self._slots
        self._tasks: List[asyncio.Task] = []
        self._wake: Optional[asyncio.Event] = None
        self._closing = False

    def ensure_started(self) -> None:
        """Start the slots (idempotent, loop side)."""
        if self._tasks:
            return
        loop = asyncio.get_running_loop()
        self._closing = False
        wake = self._wake = asyncio.Event()

        def observer(event: str, key: str, info: Dict[str, Any]) -> None:
            if event in _WAKE_EVENTS:
                loop.call_soon_threadsafe(wake.set)

        self._coordinator.queue.add_observer(observer)
        if self._execute is not None:
            self._threads = ThreadPoolExecutor(
                self._slots, thread_name_prefix="repro-local"
            )
        self._tasks = [
            loop.create_task(self._slot(index)) for index in range(self._slots)
        ]

    async def _slot(self, index: int) -> None:
        assert self._wake is not None
        # Re-check _closing every pass: on Python 3.11 a task.cancel()
        # landing in the same loop step as a _wake.set() is swallowed by
        # asyncio.wait_for, so close() cannot rely on cancellation alone.
        while not self._closing:
            grants = self._coordinator.lease(LOCAL_WORKER, ttl=math.inf)
            if not grants:
                # Nothing pending: sleep until a submission (or a safety
                # tick).  Clearing right after an empty lease, in the
                # same loop step, cannot lose a wake-up.
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
                continue
            grant = grants[0]
            payload = await self._run(index, grant)
            self._coordinator.complete(
                LOCAL_WORKER,
                grant.token,
                stamp_traced(payload, grant.trace, LOCAL_WORKER, grant.attempt),
            )

    async def _run(self, index: int, grant: LeaseGrant) -> Dict[str, Any]:
        """The payload of one grant; a failure to produce one is captured."""
        loop = asyncio.get_running_loop()
        try:
            if self._execute is not None:
                return await loop.run_in_executor(
                    self._threads, self._execute, grant.job, self._loop_dir
                )
            return await loop.run_in_executor(
                self._child(index),
                _execute_in_child,
                grant.job,
                self._loop_dir,
                grant.trace is not None,
            )
        except BrokenExecutor as error:
            # The child died mid-job: this grant fails, the next job of
            # the slot gets a fresh child.
            _log.error(
                "local worker died",
                extra={"key": grant.key, "cause": repr(error)},
            )
            child = self._children[index]
            self._children[index] = None
            if child is not None:
                child.shutdown(wait=False)
            return error_payload(grant.job, f"worker died: {error!r}")
        except Exception:
            return error_payload(
                grant.job, f"local execution raised:\n{traceback.format_exc()}"
            )

    def _child(self, index: int) -> Executor:
        child = self._children[index]
        if child is None:
            from concurrent.futures import ProcessPoolExecutor

            from repro.campaign.executor import _worker_init

            child = self._children[index] = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("forkserver"),
                initializer=_worker_init,
                initargs=(self._loop_dir, tracing_enabled()),
            )
        return child

    async def close(self) -> None:
        """Stop the slots and release their threads and children.

        A job still running is abandoned, not released: its child
        finishes it and exits.
        """
        self._closing = True
        if self._wake is not None:
            self._wake.set()  # unblock idle slots even if a cancel is lost
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        for child in self._children:
            if child is not None:
                child.shutdown(wait=False, cancel_futures=True)
        self._children = [None] * self._slots
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._threads = None

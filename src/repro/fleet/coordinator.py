"""The fleet brain: queue + worker registry + metrics + write-through.

A :class:`FleetCoordinator` wraps one :class:`~repro.fleet.queue.LeaseQueue`
with everything its callers need around it: an asyncio-friendly
``submit`` returning a future, the idempotent :class:`ResultStore`
write-through on accepted OK completions, a worker registry (who leased
what, when last seen) surfaced in ``/stats``, fleet metrics surfaced at
``/metrics``, and a background sweeper task that expires dead leases so
work gets stolen even while no worker is polling.

The service owns one for its lifetime; each campaign builds a private
one.  Both feed it from :class:`~repro.fleet.local.LocalWorkers` (worker
id ``local``), and the service also from remote ``python -m repro
worker`` processes over HTTP.  One dispatch path, two transports.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.fleet.queue import BATCH, LeaseGrant, LeaseQueue
from repro.telemetry import (
    counter,
    gauge,
    get_logger,
    histogram,
    record_event,
)

_log = get_logger("fleet")

#: Registry twins of ``FleetCoordinator.stats()`` — what /metrics scrapes.
_WORKERS = gauge(
    "repro_fleet_workers",
    "Fleet workers seen within the liveness window",
)
_LEASES = counter(
    "repro_fleet_leases_total",
    "Fleet lease protocol events "
    "(granted, renewed, expired, completed, failed, ...)",
)
_LEASE_SECONDS = histogram(
    "repro_fleet_lease_seconds",
    "Grant-to-completion latency of accepted fleet leases",
)

#: Queue events that double as lease-protocol counter labels.
_COUNTED_EVENTS = frozenset(
    {
        "granted",
        "renewed",
        "expired",
        "completed",
        "failed",
        "released",
        "requeued",
        "rejected",
        "deadline",
    }
)

#: Queue events that describe a *lease* (flight-recorder kind prefix);
#: ``submitted``/``deadline`` are queue-lifecycle, not lease-protocol.
_LEASE_EVENTS = frozenset(
    {
        "granted",
        "renewed",
        "expired",
        "completed",
        "failed",
        "released",
        "requeued",
        "rejected",
    }
)

#: Lease-log outcomes: the first terminal event a granted attempt sees
#: wins (an ``expired`` attempt later echoed as ``failed`` at the retry
#: cap stays ``expired``).
_ATTEMPT_OUTCOMES = frozenset({"completed", "failed", "expired", "released"})

_STATUS_OK = "ok"


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique enough per host, greppable in logs."""
    import os

    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerInfo:
    """One fleet worker as the coordinator has observed it."""

    id: str
    first_seen: float
    last_seen: float
    leases: int = 0
    completed: int = 0
    failed: int = 0
    active: Set[str] = field(default_factory=set)

    def describe(self, now: float) -> Dict[str, Any]:
        """JSON-safe view for ``/stats``."""
        return {
            "id": self.id,
            "leases": self.leases,
            "completed": self.completed,
            "failed": self.failed,
            "active": len(self.active),
            "last_seen_s_ago": round(max(0.0, now - self.last_seen), 3),
        }


class FleetCoordinator:
    """Owns one lease queue, its worker registry and fleet metrics.

    Construct off-loop freely; ``submit`` and :meth:`ensure_sweeper`
    must run on the event loop.  The worker-protocol methods
    (:meth:`lease` / :meth:`renew` / :meth:`release` / :meth:`complete`)
    are plain synchronous calls — the HTTP layer invokes them on the
    loop, tests from anywhere.
    """

    def __init__(
        self,
        store=None,
        ttl: float = 60.0,
        max_attempts: int = 3,
    ) -> None:
        self._store = store
        self.queue = LeaseQueue(ttl=ttl, max_attempts=max_attempts)
        self.queue.add_observer(self._on_queue_event)
        self._workers: Dict[str, WorkerInfo] = {}
        self._sweeper: Optional[asyncio.Task] = None
        self.counters: Dict[str, int] = {}
        #: Per-key lease history of *traced* jobs: submit time plus one
        #: record per granted attempt (worker, token, outcome, clocks).
        #: The service pops it at settle (:meth:`take_lease_log`) to
        #: build the per-attempt lease spans of the distributed trace,
        #: so the map stays bounded by in-flight traced work.
        self._lease_log: Dict[str, Dict[str, Any]] = {}
        self._lease_log_lock = threading.Lock()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _on_queue_event(
        self, event: str, key: str, info: Dict[str, Any]
    ) -> None:
        if event in _COUNTED_EVENTS:
            _LEASES.inc(event=event)
            self.counters[event] = self.counters.get(event, 0) + 1
        if event == "completed" and "duration" in info:
            _LEASE_SECONDS.observe(info["duration"])
        trace = info.get("trace")
        if trace is not None:
            self._log_lease_event(event, key, info)
        extra = {"duration": info["duration"]} if "duration" in info else {}
        record_event(
            ("lease." if event in _LEASE_EVENTS else "queue.") + event,
            trace=trace,
            key=key,
            worker=info.get("worker"),
            token=info.get("token"),
            attempt=info.get("attempt"),
            **extra,
        )

    def _log_lease_event(
        self, event: str, key: str, info: Dict[str, Any]
    ) -> None:
        now_wall = time.time()
        with self._lease_log_lock:
            log = self._lease_log.setdefault(
                key,
                {"submitted_t": None, "submitted_wall": None, "attempts": []},
            )
            if event == "submitted":
                log["submitted_t"] = info.get("t")
                log["submitted_wall"] = now_wall
            elif event == "granted":
                log["attempts"].append(
                    {
                        "worker": info.get("worker"),
                        "token": info.get("token"),
                        "attempt": info.get("attempt"),
                        "granted_t": info.get("t"),
                        "granted_wall": now_wall,
                        "outcome": None,
                        "end_t": None,
                    }
                )
            elif event in _ATTEMPT_OUTCOMES:
                token = info.get("token")
                for record in reversed(log["attempts"]):
                    if record["token"] == token:
                        if record["outcome"] is None:
                            record["outcome"] = event
                            record["end_t"] = info.get("t")
                        break

    def take_lease_log(self, key: str) -> Optional[Dict[str, Any]]:
        """Pop (and return) the lease history of one traced job."""
        with self._lease_log_lock:
            return self._lease_log.pop(key, None)

    def _touch(self, worker: str) -> WorkerInfo:
        now = time.time()
        known = self._workers.get(worker)
        if known is None:
            known = self._workers[worker] = WorkerInfo(
                id=worker, first_seen=now, last_seen=now
            )
            _log.info("fleet worker joined", extra={"worker": worker})
        known.last_seen = now
        self._refresh_gauge(now)
        return known

    def _refresh_gauge(self, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        window = max(30.0, 3.0 * self.queue.ttl)
        live = sum(
            1
            for info in self._workers.values()
            if now - info.last_seen <= window
        )
        _WORKERS.set(live)

    # ------------------------------------------------------------------
    # submission (loop side)
    # ------------------------------------------------------------------
    def submit(
        self,
        key: str,
        job_data: Dict[str, Any],
        job_class: str = BATCH,
        deadline: Optional[float] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> Tuple["asyncio.Future", bool]:
        """Enqueue one job; the future resolves with its payload.

        Returns ``(future, added)``; ``added`` is False when the key
        already had a live entry, which this caller now shares (the
        queue keeps the first submitter's trace and the most patient
        deadline).  Terminal entries are evicted as their future
        resolves, so a later resubmission of the same key runs fresh —
        the store, not the queue, is the cache.  ``deadline`` (absolute,
        ``time.monotonic``) cancels the job if it is still pending
        when it passes.  ``trace`` is the distributed-trace context
        carried into every lease grant for this job.  Must run on the
        event loop.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def on_done(entry) -> None:
            payload = entry.result_payload()
            self.queue.forget(key)

            def resolve() -> None:
                if not future.done():
                    future.set_result(payload)

            loop.call_soon_threadsafe(resolve)

        added = self.queue.submit(
            key,
            job_data,
            on_done=on_done,
            job_class=job_class,
            deadline=deadline,
            trace=trace,
        )
        return future, added

    # ------------------------------------------------------------------
    # the worker protocol (transport-agnostic)
    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str,
        max_jobs: int = 1,
        ttl: Optional[float] = None,
    ) -> List[LeaseGrant]:
        """Grant pending jobs to a worker and register its liveness."""
        info = self._touch(worker)
        grants = self.queue.lease(worker, max_jobs=max_jobs, ttl=ttl)
        info.leases += len(grants)
        info.active.update(grant.token for grant in grants)
        return grants

    def renew(
        self,
        worker: str,
        tokens: List[str],
        ttl: Optional[float] = None,
    ) -> Dict[str, List[str]]:
        """Heartbeat: extend a worker's leases; report lost ones."""
        info = self._touch(worker)
        outcome = self.queue.renew(worker, tokens, ttl=ttl)
        for token in outcome["lost"]:
            info.active.discard(token)
        return outcome

    def release(self, worker: str, token: str) -> bool:
        """Voluntarily hand a leased job back (graceful shutdown)."""
        info = self._touch(worker)
        info.active.discard(token)
        return self.queue.release(worker, token)

    def complete(self, worker: str, token: str, payload: Dict[str, Any]):
        """Finish a lease, writing accepted OK payloads through to the
        result store *before* any waiter's future resolves.

        Returns ``(accepted, reason)``.  The store write is keyed by
        the leased job's content key, so completion is idempotent —
        a re-run of the same job overwrites the entry with an
        equivalent one, never duplicating results.
        """
        info = self._touch(worker)
        key = self.queue.key_for_token(token, worker=worker)
        if (
            key is not None
            and self._store is not None
            and payload.get("status") == _STATUS_OK
        ):
            self._store.save(key, dict(payload, key=key))
        accepted, reason = self.queue.complete(worker, token, payload)
        info.active.discard(token)
        if accepted:
            if payload.get("status") == _STATUS_OK:
                info.completed += 1
            else:
                info.failed += 1
        return accepted, reason

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def ensure_sweeper(self) -> None:
        """Start the lease-expiry sweeper task (idempotent, loop side)."""
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.get_running_loop().create_task(
                self._sweep_forever()
            )

    async def _sweep_forever(self) -> None:
        interval = max(0.05, min(0.5, self.queue.ttl / 4.0))
        while True:
            await asyncio.sleep(interval)
            try:
                self.queue.expire()
                self._refresh_gauge()
            except Exception:  # the sweeper must outlive any hiccup
                _log.warning("fleet sweeper iteration failed")

    def drain(self) -> None:
        """Stop granting new leases (completions stay accepted)."""
        if not self.queue.draining:
            _log.info("fleet draining: no new leases will be granted")
        self.queue.drain()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` was called."""
        return self.queue.draining

    async def close(self) -> None:
        """Cancel the sweeper."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except (asyncio.CancelledError, Exception):
                pass
            self._sweeper = None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` fleet section."""
        now = time.time()
        return {
            "draining": self.queue.draining,
            "queue": self.queue.stats(),
            "pending_by_class": self.queue.pending_by_class(),
            "leases": dict(sorted(self.counters.items())),
            "workers": [
                info.describe(now)
                for info in sorted(
                    self._workers.values(), key=lambda w: w.first_seen
                )
            ],
        }

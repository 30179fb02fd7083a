"""The remote fleet worker: lease, execute, heartbeat, complete.

One :class:`FleetWorker` is the client half of the worker-pull protocol
— what ``python -m repro worker --connect <url>`` runs.  It polls the
service for leases, executes each job locally through the same
:func:`~repro.campaign.executor.execute_job_payload` path local slots
use (with :func:`_worker_init`'s warm imports and, when a cache dir
is given, the shared on-disk loop cache), renews the lease while
computing, and posts the payload back, stamped like a local slot's.

Results are *only* written server-side: the coordinator saves accepted
OK payloads into its result store, so workers need no shared
filesystem — a host joins the fleet with nothing but the service URL.
Campaign resume semantics follow for free: the service answers
store-cached keys before they ever reach the queue, so workers only
see genuinely uncomputed jobs.

Shutdown is graceful by default: :meth:`request_stop` (the CLI's first
SIGINT/SIGTERM) finishes the in-flight lease before exiting, while
:meth:`request_abort` (a second signal) releases the lease back to the
queue so another worker picks it up immediately instead of waiting for
expiry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.fleet.coordinator import default_worker_id
from repro.fleet.queue import error_payload, stamp_traced
from repro.telemetry import enable_tracing, get_logger, record_event

_log = get_logger("fleet")

#: How many consecutive connection failures before the worker gives up
#: (the service is gone, not just busy).
_MAX_CONNECT_FAILURES = 30


def sleep_runner(seconds: float) -> Callable[..., Dict[str, Any]]:
    """A fixed-cost job runner: sleep, then return a synthetic OK payload.

    ``repro worker --bench-sleep`` executes leases with it, so a run
    measures the fleet protocol (lease latency, queue scaling,
    recovery) independently of the pipeline and of how many cores the
    host has.  It also fits ``JobManager(run_payload=...)``, which
    passes a ``loop_dir`` it ignores.
    """

    def run(
        job_data: Dict[str, Any], loop_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        time.sleep(seconds)
        return {
            "schema": 1,
            "job": job_data,
            "status": "ok",
            "elapsed_s": seconds,
            "evaluation": None,
            "error": None,
        }

    return run


@dataclass
class WorkerStats:
    """What one worker run did, for logs and tests."""

    leased: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    released: int = 0
    lost: int = 0
    errors: int = 0
    stopped_by: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary."""
        return {
            "leased": self.leased,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "released": self.released,
            "lost": self.lost,
            "errors": self.errors,
            "stopped_by": self.stopped_by,
        }


class FleetWorker:
    """Pull-execute-complete loop against one service.

    ``client`` is a :class:`~repro.service.client.ServiceClient` (or
    anything with its ``fleet_*`` methods).  ``execute`` runs one job
    dict to a payload dict and is injectable for tests and the
    fixed-cost bench mode (:func:`sleep_runner`); the default is the
    real pipeline.

    ``ttl`` is the lease TTL requested from the server; the worker
    heartbeats at ``ttl / 3``.  ``poll`` is the idle sleep between
    empty lease attempts.  ``exit_on_drain`` ends the loop once the
    server reports it is draining and no lease is held.

    When a :mod:`repro.chaos` plan is active, a worker may crash hard
    right after taking a lease (``worker_crash_p``, via ``crash`` —
    ``os._exit`` by default, injectable for tests) or stall before
    posting its completion (``complete_delay_p``), exercising lease
    expiry and the late-writer-loses path under real processes.
    """

    def __init__(
        self,
        client,
        worker_id: Optional[str] = None,
        cache_dir: Optional[str] = None,
        ttl: float = 60.0,
        poll: float = 1.0,
        execute: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        exit_on_drain: bool = True,
        max_jobs: Optional[int] = None,
        crash: Optional[Callable[[], None]] = None,
    ) -> None:
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.ttl = float(ttl)
        self.poll = float(poll)
        self.exit_on_drain = exit_on_drain
        self.max_jobs = max_jobs  # None = run until drain/stop
        self.stats = WorkerStats()
        self._loop_dir: Optional[str] = None
        if cache_dir is not None:
            from repro.campaign.store import ResultStore

            self._loop_dir = str(ResultStore(cache_dir).loop_dir)
        if execute is None:
            from repro.campaign.executor import execute_job_payload

            execute = lambda job: execute_job_payload(  # noqa: E731
                job, self._loop_dir
            )
        self._execute = execute
        self._crash = crash if crash is not None else self._hard_exit
        self._stop = threading.Event()
        self._abort = threading.Event()

    @staticmethod
    def _hard_exit() -> None:
        # Chaos crash: die like SIGKILL — no release, no completion,
        # no atexit — so the lease must expire and the job be stolen.
        import os

        os._exit(42)

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Finish the current lease, then exit (first SIGINT/SIGTERM)."""
        self._stop.set()

    def request_abort(self) -> None:
        """Release the current lease and exit now (second signal)."""
        self._stop.set()
        self._abort.set()

    # ------------------------------------------------------------------
    def _warm(self) -> None:
        """Campaign-worker startup: loop cache and imports, once."""
        from repro.campaign.executor import _worker_init

        _worker_init(self._loop_dir)

    def run(self) -> WorkerStats:
        """The worker loop; returns once stopped, drained or cut off."""
        self._warm()
        _log.info(
            "fleet worker starting",
            extra={"worker": self.worker_id, "ttl": self.ttl},
        )
        connect_failures = 0
        while not self._stop.is_set():
            if (
                self.max_jobs is not None
                and self.stats.leased >= self.max_jobs
            ):
                self.stats.stopped_by = "max_jobs"
                break
            try:
                response = self.client.fleet_lease(
                    self.worker_id, max_jobs=1, ttl=self.ttl
                )
            except Exception:
                connect_failures += 1
                if connect_failures >= _MAX_CONNECT_FAILURES:
                    self.stats.stopped_by = "server unreachable"
                    break
                self._stop.wait(self.poll)
                continue
            connect_failures = 0
            leases = response.get("leases", ())
            if not leases:
                if response.get("draining") and self.exit_on_drain:
                    self.stats.stopped_by = "drain"
                    break
                self._stop.wait(self.poll)
                continue
            for grant in leases:
                self.stats.leased += 1
                self._run_lease(grant)
        if self.stats.stopped_by is None:
            self.stats.stopped_by = "stop requested"
        _log.info(
            "fleet worker exiting",
            extra={"worker": self.worker_id, **self.stats.describe()},
        )
        return self.stats

    # ------------------------------------------------------------------
    def _run_lease(self, grant: Dict[str, Any]) -> None:
        """Execute one granted job with heartbeats; post the outcome."""
        token = grant["token"]
        job_data = grant["job"]
        trace_ctx = grant.get("trace")
        trace_id = (
            trace_ctx.get("trace_id")
            if isinstance(trace_ctx, dict)
            else None
        )
        if trace_id is not None:
            # The submitter wants a distributed trace: make sure this
            # process produces a span tree for the payload to carry
            # back (the worker is a dedicated job runner — turning
            # tracing on costs nothing it was saving).
            enable_tracing()

        from repro import chaos

        injector = chaos.active()
        if injector is not None and injector.worker_crash():
            _log.warning(
                "chaos: crashing worker on lease",
                extra={"worker": self.worker_id, "key": grant.get("key")},
            )
            record_event(
                "chaos.worker_crash",
                trace=trace_id,
                worker=self.worker_id,
                key=grant.get("key"),
            )
            self._crash()
            return  # only reached with an injected (test) crash

        outcome: Dict[str, Any] = {}
        done = threading.Event()

        def compute() -> None:
            try:
                outcome["payload"] = self._execute(job_data)
            except Exception as error:  # execute_job_payload never raises,
                # but injected runners (and the bench mode) might.
                outcome["payload"] = error_payload(
                    job_data, f"worker execution raised: {error!r}"
                )
            finally:
                done.set()

        # Daemon thread: an abort abandons the computation rather than
        # blocking exit on it (the released job re-runs elsewhere).
        thread = threading.Thread(target=compute, daemon=True)
        thread.start()
        next_renew = time.monotonic() + self.ttl / 3.0
        lease_lost = False
        while not done.wait(0.1):
            if self._abort.is_set():
                try:
                    self.client.fleet_release(self.worker_id, token)
                    self.stats.released += 1
                except Exception:
                    self.stats.errors += 1
                return
            now = time.monotonic()
            if now >= next_renew:
                next_renew = now + self.ttl / 3.0
                try:
                    renewal = self.client.fleet_renew(
                        self.worker_id, [token], ttl=self.ttl
                    )
                except Exception:
                    self.stats.errors += 1  # transient; retry next beat
                    continue
                if token in renewal.get("lost", ()):
                    # The lease expired under us and the job was given
                    # away: our eventual result would be rejected, so
                    # stop wasting compute on it.
                    lease_lost = True
                    break
        if lease_lost:
            self.stats.lost += 1
            return
        payload = stamp_traced(
            outcome["payload"], trace_ctx, self.worker_id, grant.get("attempt")
        )
        if injector is not None:
            delay = injector.completion_delay()
            if delay > 0:
                _log.warning(
                    "chaos: stalling before completion",
                    extra={"worker": self.worker_id, "delay_s": delay},
                )
                record_event(
                    "chaos.completion_delay",
                    trace=trace_id,
                    worker=self.worker_id,
                    key=grant.get("key"),
                    delay_s=delay,
                )
                time.sleep(delay)
        accepted = False
        for attempt in range(3):
            try:
                reply = self.client.fleet_complete(
                    self.worker_id, token, payload
                )
            except Exception:
                self.stats.errors += 1
                time.sleep(0.2 * (attempt + 1))
                continue
            accepted = bool(reply.get("accepted"))
            break
        else:
            return  # completion never reached the server
        if not accepted:
            self.stats.rejected += 1
        elif payload.get("status") == "ok":
            self.stats.completed += 1
        else:
            self.stats.failed += 1

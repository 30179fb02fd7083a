"""The lease-based job queue: the fleet's state machine.

One :class:`LeaseQueue` tracks content-addressed jobs through
``pending -> leased -> done | failed``.  Workers *pull*: a lease grants
one job to one worker for a bounded TTL; the worker either completes it
(an OK or error payload), renews the lease while still computing,
releases it (graceful abort), or silently dies — in which case the
lease expires and the job returns to ``pending`` for any other worker
to steal.  Every grant carries a fresh token, so a late completion from
an expired lease is detected and rejected ("late writer loses"), and a
job can never be leased twice concurrently.

Jobs carry a *class* (``interactive`` evaluates vs. ``batch``
campaign/suite points) and leases are granted weighted-fair across
classes, so a flood of batch work cannot starve the cheap interactive
traffic.  Jobs may also carry a *request deadline*: a pending job whose
deadline passes is settled ``failed`` without ever being leased —
expired work is cancelled, not computed.

The queue is deliberately transport- and execution-agnostic: a
:class:`~repro.fleet.coordinator.FleetCoordinator` wraps it for
campaigns and the service alike, feeding its own
:class:`~repro.fleet.local.LocalWorkers` slots in-process and
``python -m repro worker`` processes over HTTP, and tests drive it
directly.  Jobs are plain dicts (the canonical
:meth:`~repro.campaign.job.ExperimentJob.to_dict` form) keyed by
:meth:`~repro.campaign.job.ExperimentJob.key`, so completion is
idempotent by construction — the same key always means the same work.

Thread-safe; completion callbacks and observer events fire outside the
internal lock, in the thread that triggered the transition.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.telemetry import get_logger

_log = get_logger("fleet")

#: Job states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: ``status`` of a job payload (mirrors the campaign executor's).
_STATUS_OK = "ok"

#: Job classes.  ``interactive`` is the cheap single-evaluate traffic;
#: ``batch`` is campaign/suite fan-out.  Unknown classes are accepted
#: (weight 1) so the queue stays open to future traffic shapes.
INTERACTIVE = "interactive"
BATCH = "batch"

#: Weighted-fair shares: four interactive grants for every batch grant
#: while both queues are non-empty.
CLASS_WEIGHTS = {INTERACTIVE: 4, BATCH: 1}


class FleetError(ReproError):
    """A fleet operation was malformed (bad TTL, unknown job...)."""


def error_payload(job_data: Dict[str, Any], error: str) -> Dict[str, Any]:
    """A synthetic error payload for jobs that died without one."""
    return {
        "schema": 1,
        "job": job_data,
        "status": "error",
        "elapsed_s": 0.0,
        "evaluation": None,
        "error": error,
    }


def stamp_traced(
    payload: Dict[str, Any],
    trace: Optional[Dict[str, Any]],
    worker: str,
    attempt: Optional[int],
) -> Dict[str, Any]:
    """Tag a traced grant's payload with ``trace_id``/``worker``/``attempt``.

    Payloads of untraced grants come back untouched, so fleet results
    stay byte-identical to direct execution.
    """
    trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
    if trace_id is None or not isinstance(payload, dict):
        return payload
    return dict(payload, trace_id=trace_id, worker=worker, attempt=attempt)


@dataclass(frozen=True)
class LeaseGrant:
    """One granted lease: the worker's license to compute one job."""

    key: str
    token: str
    worker: str
    job: Dict[str, Any]
    ttl: float
    attempt: int
    #: Trace context (``{"trace_id": ..., "parent": ...}``) propagated
    #: from the submitting service job, or None for untraced work.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (the ``/v1/fleet/lease`` response item)."""
        data = {
            "key": self.key,
            "token": self.token,
            "job": self.job,
            "ttl": self.ttl,
            "attempt": self.attempt,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data


@dataclass
class _Entry:
    """Internal per-job record."""

    key: str
    job: Dict[str, Any]
    state: str = PENDING
    job_class: str = BATCH
    attempts: int = 0
    token: Optional[str] = None
    worker: Optional[str] = None
    deadline: Optional[float] = None
    #: Absolute request deadline (queue clock); pending past this is
    #: cancelled without a lease.  Distinct from ``deadline``, which is
    #: the *lease* expiry while the job is running.
    expires_at: Optional[float] = None
    leased_at: Optional[float] = None
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    trace: Optional[Dict[str, Any]] = None
    callbacks: List[Callable[["_Entry"], None]] = field(default_factory=list)

    def trace_id(self) -> Optional[str]:
        """The correlating trace id, when a context was propagated."""
        if isinstance(self.trace, dict):
            raw = self.trace.get("trace_id")
            return None if raw is None else str(raw)
        return None

    def event_info(self, t: float, **extra: Any) -> Dict[str, Any]:
        """The normalized observer-event payload for this entry.

        Every queue event carries the same base shape —
        ``worker``, ``token``, ``attempt``, ``trace``, ``t`` (queue
        clock) — so observers (metrics, the flight recorder, the
        coordinator's lease log) never special-case per-kind dicts.
        Call *before* a transition clears token/worker.
        """
        info: Dict[str, Any] = {
            "worker": self.worker,
            "token": self.token,
            "attempt": self.attempts,
            "trace": self.trace_id(),
            "t": t,
        }
        info.update(extra)
        return info

    def result_payload(self) -> Dict[str, Any]:
        """The payload consumers see: the real one, or a synthesized
        error payload for jobs that failed without ever completing
        (retry cap hit through lease expiry)."""
        if self.payload is not None:
            return self.payload
        return error_payload(self.job, self.error or "job failed")


class LeaseQueue:
    """Pending/leased/done job tracking with TTL leases and retries.

    ``ttl`` is the default lease lifetime; ``max_attempts`` caps how
    many times a job may be leased before an expiry marks it failed
    (the bounded-retry guarantee: a job whose workers keep dying does
    not circulate forever).  A job whose worker *returned* an error
    payload is never retried: pipeline failures are deterministic, so
    a retry would only waste fleet time.

    Lease grants are weighted-fair across job classes by
    :data:`CLASS_WEIGHTS` (smooth weighted round-robin; classes not
    listed get weight 1).  ``observer`` (or :meth:`add_observer`) receives
    ``(event, key, info)`` tuples for telemetry: events are
    ``submitted``, ``granted``, ``renewed``, ``released``,
    ``completed``, ``rejected``, ``expired``, ``requeued``, ``failed``,
    ``deadline``.  Every ``info`` dict carries the same normalized base
    schema — ``worker``, ``token``, ``attempt``, ``trace`` (the
    correlating trace id or None), and ``t`` (the queue clock at
    emission) — plus per-kind extras (``class`` on ``submitted``,
    ``duration`` on ``completed``/``failed`` after a held lease), so
    consumers never special-case per-kind shapes.
    """

    def __init__(
        self,
        ttl: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl <= 0:
            raise FleetError(f"lease ttl must be positive, got {ttl}")
        if max_attempts < 1:
            raise FleetError(f"max_attempts must be >= 1, got {max_attempts}")
        self.ttl = float(ttl)
        self.max_attempts = int(max_attempts)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self._pending: Dict[str, Deque[str]] = {}
        self._credits: Dict[str, int] = {}
        self._by_token: Dict[str, str] = {}
        self._token_counter = itertools.count(1)
        self._draining = False
        self._observers: List[Callable[[str, str, Dict[str, Any]], None]] = []

    # ------------------------------------------------------------------
    # observers and notification plumbing
    # ------------------------------------------------------------------
    def add_observer(
        self, observer: Callable[[str, str, Dict[str, Any]], None]
    ) -> None:
        """Register a telemetry observer for queue events."""
        self._observers.append(observer)

    def _emit(
        self, events: Sequence[Tuple[str, str, Dict[str, Any]]]
    ) -> None:
        for event, key, info in events:
            for observer in self._observers:
                try:
                    observer(event, key, info)
                except Exception:  # telemetry must never break the queue
                    pass

    def _fire(self, fired: Sequence[Tuple[Callable, _Entry]]) -> None:
        for callback, entry in fired:
            try:
                callback(entry)
            except Exception:
                _log.warning(
                    "queue callback raised", extra={"key": entry.key}
                )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        key: str,
        job_data: Dict[str, Any],
        on_done: Optional[Callable[[Any], None]] = None,
        job_class: str = BATCH,
        deadline: Optional[float] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Enqueue one job; idempotent by key.

        Returns True when the job was newly added.  ``on_done`` is
        called exactly once with the entry when the job reaches a
        terminal state — immediately, if it already has.  ``deadline``
        is an absolute request deadline on the queue clock; a duplicate
        submission only ever *relaxes* an existing deadline (the most
        patient caller wins, so dedup never tightens anyone's budget).
        ``trace`` is an opaque trace context propagated into every
        :class:`LeaseGrant` for this job; on a duplicate submission the
        first submitter's context wins (dedup attaches the second
        caller to the first caller's trace).
        """
        fire_now: Optional[_Entry] = None
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(
                    key=key,
                    job=job_data,
                    job_class=job_class,
                    expires_at=deadline,
                    trace=trace,
                )
                if on_done is not None:
                    entry.callbacks.append(on_done)
                self._entries[key] = entry
                self._pending_deque(job_class).append(key)
                added = True
            else:
                added = False
                if entry.state not in (DONE, FAILED):
                    if deadline is None:
                        entry.expires_at = None
                    elif entry.expires_at is not None:
                        entry.expires_at = max(entry.expires_at, deadline)
                if on_done is not None:
                    if entry.state in (DONE, FAILED):
                        fire_now = entry
                    else:
                        entry.callbacks.append(on_done)
            if added:
                submitted_info = entry.event_info(now, **{"class": job_class})
        if added:
            self._emit([("submitted", key, submitted_info)])
        if fire_now is not None and on_done is not None:
            self._fire([(on_done, fire_now)])
        return added

    def _pending_deque(self, job_class: str) -> Deque[str]:
        queue_ = self._pending.get(job_class)
        if queue_ is None:
            queue_ = self._pending[job_class] = deque()
            self._credits.setdefault(job_class, 0)
        return queue_

    def _pick_pending_locked(self) -> Optional[_Entry]:
        """Smooth weighted round-robin over non-empty class queues."""
        best: Optional[str] = None
        total = 0
        for job_class, queue_ in self._pending.items():
            # Drop stale heads (entries settled or forgotten while
            # their key still sat in the deque).
            while queue_:
                entry = self._entries.get(queue_[0])
                if entry is not None and entry.state == PENDING:
                    break
                queue_.popleft()
            if not queue_:
                continue
            weight = max(1, CLASS_WEIGHTS.get(job_class, 1))
            self._credits[job_class] = self._credits.get(job_class, 0) + weight
            total += weight
            if best is None or self._credits[job_class] > self._credits[best]:
                best = job_class
        if best is None:
            return None
        self._credits[best] -= total
        return self._entries[self._pending[best].popleft()]

    # ------------------------------------------------------------------
    # the worker-facing protocol
    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str,
        max_jobs: int = 1,
        ttl: Optional[float] = None,
    ) -> List[LeaseGrant]:
        """Grant up to ``max_jobs`` pending jobs to ``worker``.

        Expired leases are swept first, so an actively polling fleet
        performs its own work stealing even without a background
        sweeper.  While draining, no new leases are granted.
        """
        if not worker:
            raise FleetError("lease needs a non-empty worker id")
        lease_ttl = self.ttl if ttl is None else float(ttl)
        if lease_ttl <= 0:
            raise FleetError(f"lease ttl must be positive, got {ttl}")
        now = self._clock()
        grants: List[LeaseGrant] = []
        granted_events: List[Tuple[str, str, Dict[str, Any]]] = []
        with self._lock:
            events, fired = self._expire_locked(now)
            if not self._draining:
                while len(grants) < max_jobs:
                    entry = self._pick_pending_locked()
                    if entry is None:
                        break
                    key = entry.key
                    entry.state = LEASED
                    entry.attempts += 1
                    entry.worker = worker
                    entry.token = f"{key}#{next(self._token_counter)}"
                    entry.deadline = now + lease_ttl
                    entry.leased_at = now
                    self._by_token[entry.token] = key
                    grants.append(
                        LeaseGrant(
                            key=key,
                            token=entry.token,
                            worker=worker,
                            job=entry.job,
                            ttl=lease_ttl,
                            attempt=entry.attempts,
                            trace=entry.trace,
                        )
                    )
                    granted_events.append(
                        ("granted", key, entry.event_info(now))
                    )
        self._emit(list(events) + granted_events)
        self._fire(fired)
        return grants

    def renew(
        self,
        worker: str,
        tokens: Sequence[str],
        ttl: Optional[float] = None,
    ) -> Dict[str, List[str]]:
        """Extend leases; returns which tokens renewed and which are lost.

        A token is lost when its lease expired (and was requeued or
        re-leased) or was never granted — the worker should abandon
        that job, because its eventual completion will be rejected.
        """
        lease_ttl = self.ttl if ttl is None else float(ttl)
        now = self._clock()
        renewed: List[str] = []
        lost: List[str] = []
        renewed_events: List[Tuple[str, str, Dict[str, Any]]] = []
        with self._lock:
            events, fired = self._expire_locked(now)
            for token in tokens:
                key = self._by_token.get(token)
                entry = self._entries.get(key) if key is not None else None
                if (
                    entry is not None
                    and entry.state == LEASED
                    and entry.token == token
                    and entry.worker == worker
                ):
                    entry.deadline = now + lease_ttl
                    renewed.append(token)
                    renewed_events.append(
                        ("renewed", entry.key, entry.event_info(now))
                    )
                else:
                    lost.append(token)
        self._emit(list(events) + renewed_events)
        self._fire(fired)
        return {"renewed": renewed, "lost": lost}

    def release(self, worker: str, token: str) -> bool:
        """Voluntarily return a leased job to pending (graceful abort).

        The released attempt is un-counted — a worker politely handing
        work back should not burn the job's retry budget.
        """
        with self._lock:
            key = self._by_token.get(token)
            entry = self._entries.get(key) if key is not None else None
            if (
                entry is None
                or entry.state != LEASED
                or entry.token != token
                or entry.worker != worker
            ):
                return False
            info = entry.event_info(self._clock())
            entry.attempts -= 1
            self._requeue_locked(entry)
        self._emit([("released", entry.key, info)])
        return True

    def complete(
        self, worker: str, token: str, payload: Dict[str, Any]
    ) -> Tuple[bool, Optional[str]]:
        """Finish a leased job with its result payload.

        Returns ``(accepted, reason)``.  A completion is rejected when
        its token is no longer the job's current lease — the lease
        expired and the job was requeued or completed by another
        worker — or when the worker id does not match the grant.  An
        accepted error payload records the failure.
        """
        events: List[Tuple[str, str, Dict[str, Any]]] = []
        fired: List[Tuple[Callable, _Entry]] = []
        now = self._clock()
        with self._lock:
            key = self._by_token.get(token)
            entry = self._entries.get(key) if key is not None else None
            if entry is None or entry.state != LEASED or entry.token != token:
                # No live entry to describe: synthesize the normalized
                # shape from what the rejected caller presented.
                self._emit([
                    ("rejected", key or "?", {
                        "worker": worker, "token": token, "attempt": None,
                        "trace": None, "t": now,
                    })
                ])
                return False, "unknown or superseded lease"
            if entry.worker != worker:
                info = entry.event_info(now)
                info["worker"] = worker  # the rejected caller, not the holder
                self._emit([("rejected", entry.key, info)])
                return False, f"lease is held by {entry.worker!r}"
            duration = now - (entry.leased_at if entry.leased_at is not None else now)
            info = entry.event_info(now, duration=duration)
            if payload.get("status") == _STATUS_OK:
                fired = self._settle_locked(entry, DONE, payload=payload)
                events.append(("completed", entry.key, info))
            else:
                fired = self._settle_locked(
                    entry, FAILED, payload=payload,
                    error=str(payload.get("error") or "job failed"),
                )
                events.append(("failed", entry.key, info))
        self._emit(events)
        self._fire(fired)
        return True, None

    # ------------------------------------------------------------------
    # expiry / drain
    # ------------------------------------------------------------------
    def expire(self, now: Optional[float] = None) -> List[str]:
        """Sweep expired leases; returns the affected job keys.

        Each expired job is requeued for stealing, or — at the attempt
        cap — marked failed with a captured explanation.
        """
        with self._lock:
            events, fired = self._expire_locked(
                self._clock() if now is None else now
            )
        self._emit(events)
        self._fire(fired)
        return [key for event, key, _info in events if event == "expired"]

    def _expire_locked(self, now: float):
        events: List[Tuple[str, str, Dict[str, Any]]] = []
        fired: List[Tuple[Callable, _Entry]] = []
        for entry in self._entries.values():
            if (
                entry.state == LEASED
                and entry.deadline is not None
                and entry.deadline < now
            ):
                worker = entry.worker
                info = entry.event_info(now)
                events.append(("expired", entry.key, info))
                if entry.attempts >= self.max_attempts:
                    fired.extend(
                        self._settle_locked(
                            entry,
                            FAILED,
                            error=(
                                f"lease expired {entry.attempts} time(s) "
                                f"(last worker {worker!r} presumed dead); "
                                f"retry cap {self.max_attempts} reached"
                            ),
                        )
                    )
                    events.append(("failed", entry.key, dict(info)))
                else:
                    self._requeue_locked(entry)
                    events.append(("requeued", entry.key, dict(info)))
        # Second pass: cancel pending jobs whose *request* deadline has
        # passed — they are settled failed without ever being leased.
        # Runs after the lease sweep so a job requeued above with an
        # already-expired deadline is cancelled in the same call.
        for entry in self._entries.values():
            if (
                entry.state == PENDING
                and entry.expires_at is not None
                and entry.expires_at < now
            ):
                queue_ = self._pending.get(entry.job_class)
                if queue_ is not None:
                    try:
                        queue_.remove(entry.key)
                    except ValueError:
                        pass
                info = entry.event_info(now)
                fired.extend(
                    self._settle_locked(
                        entry,
                        FAILED,
                        error=(
                            "request deadline exceeded before a lease "
                            "was granted; job cancelled unexecuted"
                        ),
                    )
                )
                events.append(("deadline", entry.key, info))
                events.append(("failed", entry.key, dict(info)))
        return events, fired

    def drain(self) -> None:
        """Stop granting new leases (in-flight leases stay honoured)."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` was called."""
        return self._draining

    # ------------------------------------------------------------------
    # state transitions (call with the lock held)
    # ------------------------------------------------------------------
    def _requeue_locked(self, entry: _Entry) -> None:
        if entry.token is not None:
            self._by_token.pop(entry.token, None)
        entry.state = PENDING
        entry.token = None
        entry.worker = None
        entry.deadline = None
        entry.leased_at = None
        self._pending_deque(entry.job_class).append(entry.key)

    def _settle_locked(
        self,
        entry: _Entry,
        state: str,
        payload: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> List[Tuple[Callable, _Entry]]:
        if entry.token is not None:
            self._by_token.pop(entry.token, None)
        entry.state = state
        entry.token = None
        entry.worker = None
        entry.deadline = None
        entry.payload = payload
        entry.error = error if error is not None else (
            None if payload is None else payload.get("error")
        )
        fired = [(callback, entry) for callback in entry.callbacks]
        entry.callbacks = []
        return fired

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def key_for_token(
        self, token: str, worker: Optional[str] = None
    ) -> Optional[str]:
        """The job key a token currently leases, or None.

        With ``worker`` given, the token must also be held by that
        worker — the write-through path uses this to refuse saving a
        payload posted under somebody else's lease.
        """
        with self._lock:
            key = self._by_token.get(token)
            if key is None:
                return None
            entry = self._entries.get(key)
            if entry is None or entry.token != token:
                return None
            if worker is not None and entry.worker != worker:
                return None
            return key

    def forget(self, key: str) -> bool:
        """Drop a *terminal* entry (keeps a long-lived queue bounded).

        The service coordinator evicts each job once its waiter has the
        payload: the result store is the durable record, and evicting
        means a later resubmission of the same key re-runs — which is
        exactly the "failures are never cached" contract.  Returns True
        when an entry was removed; pending/leased entries are kept.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.state not in (DONE, FAILED):
                return False
            del self._entries[key]
            return True

    def entry_state(self, key: str) -> Optional[str]:
        """The state of one job (None when unknown)."""
        entry = self._entries.get(key)
        return None if entry is None else entry.state

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """The terminal payload of one job (None until settled)."""
        entry = self._entries.get(key)
        if entry is None or entry.state not in (DONE, FAILED):
            return None
        return entry.result_payload()

    def stats(self) -> Dict[str, int]:
        """Job counts by state, plus the total."""
        with self._lock:
            counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
            for entry in self._entries.values():
                counts[entry.state] += 1
            counts["total"] = len(self._entries)
            return counts

    def pending_by_class(self) -> Dict[str, int]:
        """Pending job counts per class (fairness introspection)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for entry in self._entries.values():
                if entry.state == PENDING:
                    counts[entry.job_class] = (
                        counts.get(entry.job_class, 0) + 1
                    )
            return counts

    @property
    def settled(self) -> bool:
        """True when every submitted job reached a terminal state."""
        with self._lock:
            return all(
                entry.state in (DONE, FAILED)
                for entry in self._entries.values()
            )

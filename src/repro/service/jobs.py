"""The async job manager: submission, dedup, events, executor bridging.

A :class:`JobManager` lives on one asyncio event loop and turns incoming
requests into *service jobs* (evaluate, suite, campaign).  Work dedupes
at two levels, both content-addressed:

* **service-job level** — a request's job id is the content key of its
  canonical form (for ``evaluate`` it *is* the campaign subsystem's
  :meth:`ExperimentJob.key`), so resubmitting an identical request —
  concurrently or later — attaches to the existing job instead of
  creating a new one;
* **experiment level** — every underlying experiment (a bare evaluate,
  or one point of a suite/campaign expansion) is answered from the
  result store or submitted to the fleet queue, which holds one entry
  per :meth:`ExperimentJob.key`: concurrent *different* requests that
  share points (a campaign overlapping a pending evaluate, say) still
  compute each point exactly once, under the most patient deadline.

Heavy work never runs on the loop: every experiment is submitted to the
manager's :class:`~repro.fleet.coordinator.FleetCoordinator`, whose
lease queue is drained by whichever workers exist — the server's own
:class:`~repro.fleet.local.LocalWorkers` (``max_workers`` slots, each
with a child process running ``execute_job_payload``, exactly as a
campaign runs) and/or remote ``python -m repro worker`` processes
pulling over HTTP.  With ``max_workers=0`` there are no local slots and
the service relies entirely on remote workers.  Tests and benches pass
a ``run_payload`` (a counting stub, or the real pipeline in-process)
that the slots run on threads instead.
"""

from __future__ import annotations

import asyncio
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.campaign.executor import STATUS_OK
from repro.campaign.job import ExperimentJob
from repro.campaign.spec import (
    CampaignSpec,
    benchmark_from_dict,
    check_grid_keys,
)
from repro.campaign.store import ResultStore
from repro.errors import PipelineError, ReproError, WorkloadError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.local import LocalWorkers
from repro.fleet.queue import BATCH, INTERACTIVE
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import content_key, evaluation_ratios
from repro.telemetry import Span, counter, gauge, get_logger, record_event
from repro.warehouse.db import Warehouse
from repro.workloads.spec_profiles import SPEC2000_PROFILES

_log = get_logger("service")

#: Registry twins of ``JobManager.stats``: the dict stays the precise
#: per-manager introspection surface (and API response), the metrics are
#: what /metrics scrapes across the process.
_DEDUP_HITS = counter(
    "repro_service_dedup_hits_total",
    "Work answered without recomputing, by dedup level "
    "(job, store, inflight)",
)
_JOBS = counter(
    "repro_service_jobs_total",
    "Service jobs reaching a terminal state, by kind and status",
)
_QUEUE_DEPTH = gauge(
    "repro_service_queue_depth",
    "Service jobs currently queued or running, by admission class",
)
_REJECTED = counter(
    "repro_service_rejected_total",
    "Submissions refused by admission control, by admission class",
)
_DEADLINES = counter(
    "repro_service_deadline_exceeded_total",
    "Service jobs that failed their request deadline, by kind",
)

#: Service-job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Sentinel closing an event subscription stream.
_STREAM_END = None


class ServiceError(ReproError):
    """A malformed or unserviceable request."""


class ServiceOverloadError(ServiceError):
    """Admission control refused a submission: the queue is full.

    Carries the admission class that was full and a ``retry_after_s``
    hint the HTTP layer surfaces as a ``Retry-After`` header.
    """

    def __init__(
        self, message: str, job_class: str, retry_after_s: float
    ) -> None:
        super().__init__(message)
        self.job_class = job_class
        self.retry_after_s = retry_after_s


#: Which admission class each job kind bills against: evaluates are
#: the cheap interactive traffic, suite/campaign fan-out is batch.
_KIND_CLASS = {
    "evaluate": INTERACTIVE,
    "suite": BATCH,
    "campaign": BATCH,
}


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (minted at HTTP/manager ingress)."""
    return uuid.uuid4().hex[:16]


class JobTrace:
    """Assembles one service job's distributed trace, span by span.

    The process-local span machinery in :mod:`repro.telemetry.trace`
    keeps a per-*thread* stack — exactly wrong for a ``JobManager``,
    where many jobs interleave on one event-loop thread.  This
    assembler therefore builds the tree explicitly: the root span is
    the submit, and the manager attaches lifecycle children
    (``admission``, per-experiment spans wrapping ``queue_wait`` /
    per-attempt ``lease`` spans / ``warehouse_record``,
    ``deadline_cancel``) as the job progresses.  Worker-side span
    trees re-parent under the lease attempt that completed them,
    byte-stable (:meth:`Span.from_dict` of a :meth:`Span.to_dict`
    round-trips exactly).

    All mutation happens on the manager's loop thread; no locking.
    """

    __slots__ = ("trace_id", "root", "_t0")

    def __init__(self, trace_id: str, kind: str, job_id: str) -> None:
        self.trace_id = trace_id
        self.root = Span(
            "submit", {"kind": kind, "job": job_id, "trace_id": trace_id}
        )
        self.root.start_s = time.time()
        self._t0 = time.perf_counter()

    def begin(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Tuple[Span, float]:
        """Open a child span; returns ``(span, perf_counter_mark)``."""
        child = Span(name, attrs)
        child.start_s = time.time()
        (self.root if parent is None else parent).children.append(child)
        return child, time.perf_counter()

    @staticmethod
    def end(child: Span, started: float) -> None:
        """Close a span opened with :meth:`begin`."""
        child.elapsed_s = time.perf_counter() - started

    def mark(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """A zero-duration marker span (instantaneous events)."""
        child = Span(name, attrs)
        child.start_s = time.time()
        (self.root if parent is None else parent).children.append(child)
        return child

    def finish(self, status: str) -> None:
        """Seal the root span at job settle."""
        self.root.annotate(status=status)
        self.root.elapsed_s = time.perf_counter() - self._t0

    @property
    def finished(self) -> bool:
        return self.root.elapsed_s > 0.0

    def snapshot(self) -> Dict[str, Any]:
        """The tree as of now (live root patched to elapsed-so-far)."""
        data = self.root.to_dict()
        if not self.finished:
            data["elapsed_s"] = time.perf_counter() - self._t0
        return data

    def context(self, parent: str) -> Dict[str, Any]:
        """The propagation context carried inside fleet lease grants."""
        return {"trace_id": self.trace_id, "parent": parent}


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds on concurrently admitted (queued or running) jobs.

    Limits are per admission class; ``None`` means unbounded.  Dedup
    attaches are always admitted — they add no work.  ``retry_after_s``
    is the base backoff hint returned with a 429.
    """

    max_interactive: Optional[int] = 128
    max_batch: Optional[int] = 16
    retry_after_s: float = 1.0

    def limit(self, job_class: str) -> Optional[int]:
        if job_class == INTERACTIVE:
            return self.max_interactive
        return self.max_batch

    @classmethod
    def unbounded(cls) -> "AdmissionPolicy":
        return cls(max_interactive=None, max_batch=None)


@dataclass
class ServiceJob:
    """One submitted unit of service work and its event history."""

    id: str
    kind: str  # "evaluate" | "suite" | "campaign"
    request: Dict[str, Any]
    status: str = JOB_QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: How many submissions this job absorbed (1 = no dedup happened).
    submissions: int = 1
    #: Admission class ("interactive" | "batch").
    job_class: str = INTERACTIVE
    #: Request deadline: relative budget (seconds) and its absolute
    #: ``time.monotonic`` form, fixed at submission.
    deadline_s: Optional[float] = None
    deadline_at: Optional[float] = None
    #: Distributed-trace correlation: the id every lease grant, worker
    #: payload and flight-recorder event of this job carries, and the
    #: assembler building the cross-process span tree.
    trace_id: Optional[str] = None
    trace: Optional[JobTrace] = field(default=None, repr=False)
    events: List[Dict[str, Any]] = field(default_factory=list)
    _queues: List[asyncio.Queue] = field(default_factory=list, repr=False)
    _done: Optional[asyncio.Event] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status in (JOB_DONE, JOB_FAILED)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe public view (what ``GET /v1/jobs/<id>`` returns)."""
        data: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "submissions": self.submissions,
            "n_events": len(self.events),
        }
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        if self.trace_id is not None:
            data["trace"] = self.trace_id
        if self.error is not None:
            data["error"] = self.error
        return data

    # ------------------------------------------------------------------
    def publish(self, event: str, **payload: Any) -> None:
        """Record an event and fan it out to live subscribers."""
        record = {"event": event, "job": self.id, "t": time.time(), **payload}
        self.events.append(record)
        for queue in list(self._queues):
            queue.put_nowait(record)
        if self.finished:
            for queue in list(self._queues):
                queue.put_nowait(_STREAM_END)
            if self._done is not None:
                self._done.set()

    def subscribe(self) -> asyncio.Queue:
        """A queue replaying past events, then streaming live ones.

        The stream terminates with ``None`` once the job finishes.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for record in self.events:
            queue.put_nowait(record)
        if self.finished:
            queue.put_nowait(_STREAM_END)
        else:
            self._queues.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach a subscriber queue (no-op if already detached)."""
        if queue in self._queues:
            self._queues.remove(queue)


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------
def _options_from_request(request: Dict[str, Any]) -> ExperimentOptions:
    """Experiment options from a request's shorthand (or full) form."""
    try:
        if "options" in request:  # power users post the canonical dict
            return ExperimentOptions.from_dict(request["options"])
    except PipelineError as error:
        raise ServiceError(str(error)) from error
    if request.get("machine", "paper") != "paper":
        raise ServiceError(
            f"unknown machine {request['machine']!r}: only 'paper' is a "
            "machine name; send a scenario pack path as machine_file"
        )
    return ExperimentOptions(
        n_buses=int(request.get("buses", 1)),
        machine_file=request.get("machine_file"),
    )


def _experiment_job(request: Dict[str, Any]) -> ExperimentJob:
    if "benchmark" not in request:
        raise ServiceError("evaluate request needs a 'benchmark'")
    try:
        return ExperimentJob(
            benchmark=str(request["benchmark"]),
            scale=float(request.get("scale", 0.05)),
            options=_options_from_request(request),
        )
    except ServiceError:
        raise
    except ReproError as error:  # bad input, e.g. an unknown benchmark
        raise ServiceError(str(error)) from error
    except Exception as error:
        raise ServiceError(f"malformed evaluate request: {error}") from error


def _campaign_spec(request: Dict[str, Any]) -> CampaignSpec:
    try:
        spec = dict(request.get("spec", request))
        spec.pop("label", None)
        try:
            check_grid_keys(spec)
        except WorkloadError as error:
            raise ServiceError(str(error)) from error
        benchmarks = spec.get("benchmarks", "all")
        if benchmarks == "all":
            benchmarks = list(SPEC2000_PROFILES)
        return CampaignSpec(
            benchmarks=tuple(benchmark_from_dict(b) for b in benchmarks),
            scale=float(spec.get("scale", 0.05)),
            buses_grid=tuple(spec.get("buses_grid", (1,))),
            machine_files=tuple(spec.get("machine_files", (None,))),
            per_class_energy_grid=tuple(
                spec.get("per_class_energy_grid", (True,))
            ),
            preplace_grid=tuple(spec.get("preplace_grid", (True,))),
            ed2_refinement_grid=tuple(spec.get("ed2_refinement_grid", (True,))),
            sync_penalties_grid=tuple(spec.get("sync_penalties_grid", (True,))),
        )
    except ServiceError:
        raise
    except ReproError as error:  # bad input, e.g. an unknown benchmark
        raise ServiceError(str(error)) from error
    except Exception as error:
        raise ServiceError(f"malformed campaign request: {error}") from error


def _evaluation_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The headline numbers of one experiment payload."""
    evaluation = payload.get("evaluation") or {}
    summary: Dict[str, Any] = {"elapsed_s": payload.get("elapsed_s")}
    if "heterogeneous_measured" in evaluation:
        ed2, energy, time_ratio = evaluation_ratios(evaluation)
        summary.update(
            ed2_ratio=ed2, energy_ratio=energy, time_ratio=time_ratio
        )
    return summary


# ----------------------------------------------------------------------
class JobManager:
    """Owns the service's jobs, dedup tables and local workers.

    ``max_workers`` local slots (started on first compute) lease from
    the manager's fleet coordinator.  By default each slot owns a child
    process running :func:`~repro.campaign.executor.execute_job_payload`;
    a ``run_payload(job_data, loop_dir)`` callable runs on threads of
    this process instead (the inline runner, counting stubs in tests).

    The ``store`` records completed points, campaign labels and settled
    traces; the ``warehouse`` indexes each file as it is written.

    All public methods must be called from the manager's event loop.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        warehouse: Optional[Warehouse] = None,
        run_payload: Optional[Callable[..., Dict[str, Any]]] = None,
        max_workers: int = 2,
        lease_ttl: float = 60.0,
        fleet_retries: int = 3,
        admission: Optional[AdmissionPolicy] = None,
        default_deadline: Optional[float] = None,
    ) -> None:
        self._store = store
        self._warehouse = warehouse
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.default_deadline = default_deadline
        #: Admitted (non-terminal) jobs per admission class.
        self._active: Dict[str, int] = {INTERACTIVE: 0, BATCH: 0}
        #: All experiment execution dispatches through the fleet: the
        #: coordinator's queue feeds local slots and remote workers
        #: alike, and owns the store write-through on completion.
        self.fleet = FleetCoordinator(
            store=store, ttl=lease_ttl, max_attempts=fleet_retries
        )
        self._local: Optional[LocalWorkers] = (
            LocalWorkers(
                self.fleet,
                max_workers,
                loop_dir=None if store is None else str(store.loop_dir),
                execute=run_payload,
            )
            if max_workers > 0
            else None
        )
        self._jobs: Dict[str, ServiceJob] = {}
        self._order: List[str] = []  # submission order for listings
        #: Strong references to driver tasks (the loop only keeps weak
        #: ones; an unreferenced running task may be collected mid-run).
        self._drivers: set = set()
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "computed": 0,
            "store_hits": 0,
            "inflight_hits": 0,
            "failed": 0,
            "rejected": 0,
            "deadline_exceeded": 0,
        }

    def active_by_class(self) -> Dict[str, int]:
        """Admitted (non-terminal) job counts per admission class."""
        return dict(self._active)

    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[ResultStore]:
        """The backing result store (may be None)."""
        return self._store

    @property
    def warehouse(self) -> Optional[Warehouse]:
        """The warehouse kept in sync (may be None)."""
        return self._warehouse

    def drain(self) -> None:
        """Stop granting fleet leases (graceful shutdown's first step)."""
        self.fleet.drain()

    async def close(self) -> None:
        """Fail the running jobs and stop the local workers."""
        drivers = list(self._drivers)
        for task in drivers:
            task.cancel()
        await asyncio.gather(*drivers, return_exceptions=True)
        if self._local is not None:
            await self._local.close()
        await self.fleet.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[ServiceJob]:
        """Look up a service job by id."""
        return self._jobs.get(job_id)

    def jobs(self) -> List[ServiceJob]:
        """All service jobs, in submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    async def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> ServiceJob:
        """Block until a job finishes (or ``timeout`` elapses)."""
        job = self._jobs[job_id]
        if job.finished:
            return job
        if job._done is None:
            job._done = asyncio.Event()
        await asyncio.wait_for(job._done.wait(), timeout)
        return job

    def _deadline_budget(self, request: Dict[str, Any]) -> Optional[float]:
        """The request's deadline budget in seconds (None = unbounded)."""
        raw = request.get("deadline_s", self.default_deadline)
        if raw is None:
            return None
        try:
            budget = float(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                f"deadline_s must be a number, got {raw!r}"
            ) from None
        if budget <= 0:
            raise ServiceError(f"deadline_s must be positive, got {budget}")
        return budget

    def _admit(
        self,
        job_id: str,
        kind: str,
        request: Dict[str, Any],
        runner: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
    ) -> ServiceJob:
        """Register (or dedup onto) a service job and start it.

        Dedup attaches bypass admission control (they add no work);
        genuinely new jobs are refused with
        :class:`ServiceOverloadError` when their class is at its limit.

        Every new job gets a distributed trace: its id comes from the
        request's ``trace`` field (the ``X-Repro-Trace`` header at the
        HTTP layer) or is minted here, and the admission decision is
        the trace's first lifecycle span.
        """
        admitted_at = time.perf_counter()
        budget = self._deadline_budget(request)
        raw_trace = request.get("trace")
        trace_id = str(raw_trace) if raw_trace else mint_trace_id()
        self.stats["submitted"] += 1
        existing = self._jobs.get(job_id)
        if existing is not None and existing.status != JOB_FAILED:
            # In-flight or completed: attach, don't recompute.  Failed
            # jobs fall through and retry — errors are not cached.
            # The attach joins the existing job's trace.
            existing.submissions += 1
            self.stats["deduped"] += 1
            _DEDUP_HITS.inc(level="job")
            record_event(
                "admission.dedup",
                trace=existing.trace_id,
                job=job_id,
                job_kind=kind,
            )
            return existing
        job_class = _KIND_CLASS.get(kind, BATCH)
        limit = self.admission.limit(job_class)
        if limit is not None and self._active[job_class] >= limit:
            self.stats["rejected"] += 1
            _REJECTED.inc(job_class=job_class)
            _log.warning(
                "job rejected: admission queue full",
                extra={"kind": kind, "job_class": job_class, "limit": limit},
            )
            record_event(
                "admission.rejected",
                trace=str(raw_trace) if raw_trace else None,
                job=job_id,
                job_kind=kind,
                job_class=job_class,
                limit=limit,
                active=self._active[job_class],
            )
            raise ServiceOverloadError(
                f"{job_class} admission queue full "
                f"({self._active[job_class]}/{limit} jobs in flight)",
                job_class=job_class,
                retry_after_s=self.admission.retry_after_s,
            )
        trace = JobTrace(trace_id, kind, job_id)
        job = ServiceJob(
            id=job_id,
            kind=kind,
            request=request,
            job_class=job_class,
            deadline_s=budget,
            deadline_at=(
                None if budget is None else time.monotonic() + budget
            ),
            trace_id=trace_id,
            trace=trace,
        )
        admission = trace.mark(
            "admission", job_class=job_class, outcome="admitted"
        )
        admission.elapsed_s = time.perf_counter() - admitted_at
        admission.start_s -= admission.elapsed_s  # opened at _admit entry
        record_event(
            "admission.admitted",
            trace=trace_id,
            job=job_id,
            job_kind=kind,
            job_class=job_class,
        )
        if existing is None:
            self._order.append(job_id)
        self._jobs[job_id] = job
        self._active[job_class] += 1
        _QUEUE_DEPTH.inc(job_class=job_class)
        _log.info(
            "job submitted",
            extra={"job": job_id, "kind": kind, "trace": trace_id},
        )
        job.publish("submitted", kind=kind, trace=trace_id)
        task = asyncio.get_running_loop().create_task(self._drive(job, runner))
        self._drivers.add(task)
        task.add_done_callback(self._drivers.discard)
        return job

    async def _drive(
        self,
        job: ServiceJob,
        runner: Callable[[ServiceJob], Awaitable[Dict[str, Any]]],
    ) -> None:
        job.status = JOB_RUNNING
        job.started_at = time.time()
        job.publish("started")
        try:
            if job.deadline_at is None:
                job.result = await runner(job)
            else:
                # Enforce the request deadline here; the fleet queue
                # additionally cancels still-pending experiment work at
                # the same deadline so it is never computed at all.
                job.result = await asyncio.wait_for(
                    runner(job),
                    timeout=max(0.0, job.deadline_at - time.monotonic()),
                )
            job.status = JOB_DONE
            job.finished_at = time.time()
            job.publish("completed", summary=job.result.get("summary"))
        except asyncio.CancelledError:
            job.status = JOB_FAILED
            job.error = "cancelled: service shutting down"
            job.finished_at = time.time()
            self.stats["failed"] += 1
            job.publish("failed", error=job.error)
            raise
        except (asyncio.TimeoutError, TimeoutError):
            job.status = JOB_FAILED
            job.error = (
                f"deadline exceeded: job still incomplete after its "
                f"{job.deadline_s:g}s budget"
            )
            job.finished_at = time.time()
            self.stats["failed"] += 1
            self.stats["deadline_exceeded"] += 1
            _DEADLINES.inc(kind=job.kind)
            _log.warning(
                "job deadline exceeded",
                extra={"job": job.id, "kind": job.kind},
            )
            if job.trace is not None:
                job.trace.mark("deadline_cancel", budget_s=job.deadline_s)
            record_event(
                "deadline.exceeded",
                trace=job.trace_id,
                job=job.id,
                job_kind=job.kind,
                budget_s=job.deadline_s,
            )
            job.publish("failed", error=job.error)
        except Exception:
            job.status = JOB_FAILED
            job.error = traceback.format_exc()
            job.finished_at = time.time()
            self.stats["failed"] += 1
            _log.warning(
                "job failed", extra={"job": job.id, "kind": job.kind}
            )
            job.publish("failed", error=job.error)
        finally:
            self._active[job.job_class] -= 1
            _QUEUE_DEPTH.dec(job_class=job.job_class)
            _JOBS.inc(kind=job.kind, status=job.status)
            if job.trace is not None:
                job.trace.finish(job.status)
                if self._store is not None:
                    # Fire-and-forget: the live timeline serves from
                    # memory, the stored copy is for post-hoc
                    # ``repro query timeline`` — not worth blocking
                    # (or failing) the settle path on disk or SQLite.
                    asyncio.get_running_loop().run_in_executor(
                        None, self._record_trace, job
                    )

    def submit_evaluate(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit one experiment; job id == the experiment's cache key."""
        experiment = _experiment_job(dict(request))
        job_id = experiment.key()

        async def run(job: ServiceJob) -> Dict[str, Any]:
            payload = await self._run_experiment(
                experiment,
                source_job=job,
                job_class=INTERACTIVE,
                deadline=job.deadline_at,
            )
            if payload.get("status") != STATUS_OK:
                raise ServiceError(
                    f"experiment failed:\n{payload.get('error')}"
                )
            return {
                "kind": "evaluate",
                "key": job_id,
                "summary": _evaluation_summary(payload),
                "evaluation": payload.get("evaluation"),
            }

        return self._admit(job_id, "evaluate", dict(request), run)

    def submit_suite(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit all benchmarks at one configuration."""
        request = dict(request)
        options = _options_from_request(request)
        scale = float(request.get("scale", 0.05))
        experiments = [
            ExperimentJob(benchmark=name, scale=scale, options=options)
            for name in SPEC2000_PROFILES
        ]
        job_id = content_key(
            {"kind": "suite", "points": [e.key() for e in experiments]}
        )
        return self._admit(
            job_id,
            "suite",
            request,
            lambda job: self._run_points(job, "suite", experiments),
        )

    def submit_campaign(self, request: Dict[str, Any]) -> ServiceJob:
        """Submit a campaign grid; points dedupe against everything.

        The label is part of the job identity: resubmitting the same
        grid under a *new* label is a fresh (cheap — every point answers
        from the store or a live queue entry) job that records the new
        campaign, rather than deduping onto the old one and silently
        dropping the label.
        """
        request = dict(request)
        spec = _campaign_spec(request)
        experiments = spec.expand()
        job_id = content_key(
            {
                "kind": "campaign",
                "points": [e.key() for e in experiments],
                "label": request.get("label"),
            }
        )
        label = request.get("label") or f"service:{job_id}"
        return self._admit(
            job_id,
            "campaign",
            request,
            lambda job: self._run_points(
                job, "campaign", experiments, campaign=label
            ),
        )

    # ------------------------------------------------------------------
    # experiment-level execution and dedup
    # ------------------------------------------------------------------
    async def _run_experiment(
        self,
        experiment: ExperimentJob,
        source_job: Optional[ServiceJob] = None,
        job_class: str = BATCH,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One experiment payload, computed at most once per key.

        Resolution order: result store (completed history), then the
        fleet queue, which holds one entry per key: a caller that finds
        a live entry joins it (an ``inflight`` hit) and is answered by
        the same computation, under the most patient deadline of the
        callers sharing it.

        When the source job carries a trace, the whole resolution is
        wrapped in an ``experiment`` span: dedup hits get a span tagged
        with their source, experiments this caller submitted gain
        ``queue_wait``, one ``lease`` span per granted attempt (from
        the coordinator's lease log, tagged worker/token/outcome, the
        completing attempt holding the re-parented worker span tree)
        and a ``warehouse_record`` span.
        """
        key = experiment.key()
        trace = None if source_job is None else source_job.trace
        exp_span: Optional[Span] = None
        exp_mark = 0.0
        if trace is not None:
            exp_span, exp_mark = trace.begin(
                "experiment",
                key=key,
                benchmark=experiment.benchmark,
                config=experiment.config_label(),
            )
        try:
            if self._store is not None:
                payload = self._store.get(key)
                if payload is not None and payload.get("status") == STATUS_OK:
                    self.stats["store_hits"] += 1
                    _DEDUP_HITS.inc(level="store")
                    if exp_span is not None:
                        exp_span.annotate(source="store")
                    await self._record(key, payload, trace, exp_span)
                    return payload
            self.fleet.ensure_sweeper()
            if self._local is not None:
                self._local.ensure_started()
            # The coordinator saves accepted OK payloads to the store
            # before resolving the future, so _record sees a fresh file.
            future, added = self.fleet.submit(
                key,
                experiment.to_dict(),
                job_class=job_class,
                deadline=deadline,
                trace=None if trace is None else trace.context(parent=key),
            )
            if added:
                self.stats["computed"] += 1
            else:
                self.stats["inflight_hits"] += 1
                _DEDUP_HITS.inc(level="inflight")
                if exp_span is not None:
                    exp_span.annotate(source="inflight")
            payload = await future
            if added and exp_span is not None:
                # The lease log belongs to the caller that created the entry.
                exp_span.annotate(source="fleet")
                self._attach_lease_spans(trace, exp_span, key, payload)
            await self._record(key, payload, trace, exp_span)
            return payload
        finally:
            if exp_span is not None:
                JobTrace.end(exp_span, exp_mark)

    def _attach_lease_spans(
        self,
        trace: JobTrace,
        exp_span: Span,
        key: str,
        payload: Dict[str, Any],
    ) -> None:
        """Rebuild queue/lease history as spans under the experiment.

        The coordinator's lease log recorded the queue's own monotonic
        clock at submit, each grant, and each attempt's terminal event;
        durations come from that single clock (never from wall-clock
        differences across processes), while ``start_s`` wall stamps
        only *place* the spans on the merged timeline.  The worker's
        serialized span tree — shipped back inside the payload —
        re-parents under the attempt that produced it, byte-stable.
        """
        log = self.fleet.take_lease_log(key)
        if log is None:
            return
        now_mono = time.monotonic()
        submitted_t = log.get("submitted_t")
        attempts = log.get("attempts") or []
        if submitted_t is not None:
            waited_until = (
                attempts[0]["granted_t"] if attempts else now_mono
            )
            queue_wait = trace.mark(
                "queue_wait",
                parent=exp_span,
                leased=bool(attempts),
            )
            queue_wait.start_s = log.get("submitted_wall")
            queue_wait.elapsed_s = max(0.0, waited_until - submitted_t)
        worker_tree = payload.get("trace")
        worker_attempt = payload.get("attempt")
        for record in attempts:
            end_t = record["end_t"] if record["end_t"] is not None else now_mono
            lease_span = trace.mark(
                "lease",
                parent=exp_span,
                worker=record["worker"],
                token=record["token"],
                attempt=record["attempt"],
                outcome=record["outcome"] or "abandoned",
            )
            lease_span.start_s = record["granted_wall"]
            lease_span.elapsed_s = max(0.0, end_t - record["granted_t"])
            if (
                isinstance(worker_tree, dict)
                and record["outcome"] == "completed"
                and (
                    worker_attempt is None
                    or worker_attempt == record["attempt"]
                )
            ):
                lease_span.children.append(Span.from_dict(worker_tree))

    async def _record(
        self,
        key: str,
        payload: Dict[str, Any],
        trace: Optional[JobTrace],
        exp_span: Optional[Span],
    ) -> None:
        """Index a completed experiment (in a ``warehouse_record`` span
        when traced) off the event loop: SQLite writes retry with backoff
        sleeps under contention (or an injected busy storm), and a worker
        thread keeps /healthz and every other handler responsive."""
        if self._warehouse is None or payload.get("status") != STATUS_OK:
            return
        record_span = None
        if trace is not None and exp_span is not None:
            record_span, mark = trace.begin(
                "warehouse_record", parent=exp_span, key=key
            )
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self._index_entry, key, payload
            )
        finally:
            if record_span is not None:
                JobTrace.end(record_span, mark)

    def _index_entry(self, key: str, payload: Dict[str, Any]) -> None:
        path = None if self._store is None else self._store.path(key)
        try:
            mtime = None if path is None else path.stat().st_mtime
        except OSError:
            mtime = None
        self._warehouse.record_payload(dict(payload, key=key), source_mtime=mtime)

    def _keep(self, write: Callable[..., Any], *args: Any) -> None:
        """Write a store file with ``write(*args)``, then index it."""
        path = write(*args)
        if self._warehouse is not None:
            self._warehouse.index_file(path)

    def _record_trace(self, job: ServiceJob) -> None:
        """Save and index a settled job's trace tree (worker thread).

        Best-effort by design: the in-memory timeline already answered
        any live consumer, and a trace lost to a full disk or a closing
        warehouse is not worth failing the job over.
        """
        try:
            self._keep(
                self._store.save_trace,
                job.trace_id or job.trace.trace_id,
                job.id,
                job.kind,
                job.created_at,
                job.trace.snapshot(),
            )
        except Exception:
            _log.warning("trace record failed", extra={"job": job.id})

    def timeline(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The live distributed trace of one job (by id or trace id)."""
        job = self._jobs.get(job_id)
        if job is None:
            for candidate in self._jobs.values():
                if candidate.trace_id == job_id:
                    job = candidate
                    break
        if job is None or job.trace is None:
            return None
        return {
            "job": job.id,
            "trace": job.trace_id,
            "kind": job.kind,
            "status": job.status,
            "tree": job.trace.snapshot(),
        }

    async def _run_points(
        self,
        job: ServiceJob,
        kind: str,
        experiments: List[ExperimentJob],
        campaign: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fan a suite/campaign over its points, with progress events;
        a ``campaign`` label is filed in the store before any point runs."""
        if campaign is not None and self._store is not None:
            await asyncio.get_running_loop().run_in_executor(
                None,
                self._keep,
                self._store.add_label,
                campaign,
                [experiment.key() for experiment in experiments],
            )

        async def one_point(experiment: ExperimentJob):
            payload = await self._run_experiment(
                experiment,
                source_job=job,
                job_class=BATCH,
                deadline=job.deadline_at,
            )
            return experiment, payload

        points: List[Dict[str, Any]] = []
        done = 0
        failures = 0
        tasks = [
            asyncio.ensure_future(one_point(experiment))
            for experiment in experiments
        ]
        try:
            for future in asyncio.as_completed(tasks):
                experiment, payload = await future
                done += 1
                ok = payload.get("status") == STATUS_OK
                failures += 0 if ok else 1
                point = {
                    "key": experiment.key(),
                    "benchmark": experiment.benchmark,
                    "config": experiment.config_label(),
                    "status": payload.get("status"),
                    **(_evaluation_summary(payload) if ok else {}),
                }
                if not ok:
                    point["error"] = payload.get("error")
                points.append(point)
                job.publish(
                    "progress",
                    completed=done,
                    total=len(experiments),
                    point=point,
                )
        except BaseException:
            for task in tasks:
                task.cancel()
            raise
        points.sort(key=lambda point: (point["benchmark"], point["key"]))
        ok_points = [p for p in points if p["status"] == STATUS_OK]
        summary: Dict[str, Any] = {
            "points": len(points),
            "failed": failures,
        }
        for metric in ("ed2_ratio", "energy_ratio", "time_ratio"):
            values = [p[metric] for p in ok_points if metric in p]
            if values:
                summary[f"mean_{metric}"] = sum(values) / len(values)
        result: Dict[str, Any] = {
            "kind": kind,
            "summary": summary,
            "points": points,
        }
        if campaign is not None:
            result["campaign"] = campaign
        return result

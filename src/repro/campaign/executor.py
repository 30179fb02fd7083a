"""Parallel, cached, resumable execution of campaign jobs.

A campaign is a scan of cached results followed by a private
:class:`~repro.fleet.coordinator.FleetCoordinator` drained by
:class:`~repro.fleet.local.LocalWorkers` — the same local worker the
service runs, leasing from the same kind of queue remote ``python -m
repro worker`` processes pull from.  Whole jobs already in the
:class:`~repro.campaign.store.ResultStore` are answered without
executing; the rest are leased one at a time to ``n_jobs`` slots (child
processes, since the pipeline is CPU-bound Python, or one in-process
slot), and the coordinator writes each OK payload through to the store
as it completes.  Failures are captured as data instead of killing the
sweep: a job whose child dies fails alone with a "worker died" error,
and the other slots carry on.

Workers receive the job in its canonical dict form and return a
JSON-safe payload, so exactly what crosses the process boundary is what
lands in the cache — no pickling of live pipeline objects.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.job import ExperimentJob
from repro.campaign.store import ResultStore
from repro.pipeline.experiment import BenchmarkEvaluation
from repro.telemetry import get_logger, span

#: ``status`` values of a job payload.
STATUS_OK = "ok"
STATUS_ERROR = "error"

_log = get_logger("campaign")


@dataclass
class JobResult:
    """Outcome of one campaign job (computed, cached or failed)."""

    job: ExperimentJob
    key: str
    status: str
    elapsed_s: float
    cached: bool
    evaluation: Optional[BenchmarkEvaluation] = None
    error: Optional[str] = None
    #: Per-loop cache counter deltas of this job's execution: ``hits``
    #: (memory LRU), ``misses``, ``disk_hits`` and ``corrupt`` of the
    #: profile/schedule artifacts it touched — the two hit kinds stay
    #: distinct so the disk layer's contribution is visible.  None for
    #: whole-job cache answers and payloads written before per-loop
    #: caching existed.
    loop_cache: Optional[Dict[str, int]] = None
    #: Serialized span tree of the job's execution (see
    #: :mod:`repro.telemetry.trace`); None unless tracing was enabled
    #: in the process — worker or inline — that ran the job.
    trace: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the job produced an evaluation."""
        return self.status == STATUS_OK and self.evaluation is not None

    @property
    def loop_cache_memory_hits(self) -> int:
        """Per-loop cache hits answered from the in-memory LRU."""
        return (self.loop_cache or {}).get("hits", 0)

    @property
    def loop_cache_disk_hits(self) -> int:
        """Per-loop cache hits answered from the on-disk layer."""
        return (self.loop_cache or {}).get("disk_hits", 0)

    @property
    def loop_cache_misses(self) -> int:
        """Loops this job actually had to profile/schedule."""
        return (self.loop_cache or {}).get("misses", 0)


@dataclass
class CampaignResult:
    """All job results of one campaign run, in job order."""

    results: List[JobResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> List[JobResult]:
        """Results that carry an evaluation."""
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        """Results whose job raised."""
        return [r for r in self.results if r.status == STATUS_ERROR]

    @property
    def n_cached(self) -> int:
        """How many jobs were answered from the store."""
        return sum(1 for r in self.results if r.cached)

    @property
    def total_elapsed_s(self) -> float:
        """Sum of per-job wall times (compute actually spent this run)."""
        return sum(r.elapsed_s for r in self.results if not r.cached)

    @property
    def loop_cache_hits(self) -> int:
        """Per-loop cache hits (memory + disk) across executed jobs."""
        return self.loop_cache_memory_hits + self.loop_cache_disk_hits

    @property
    def loop_cache_memory_hits(self) -> int:
        """Per-loop memory-LRU hits across executed jobs."""
        return sum(r.loop_cache_memory_hits for r in self.results)

    @property
    def loop_cache_disk_hits(self) -> int:
        """Per-loop disk-layer hits across executed jobs."""
        return sum(r.loop_cache_disk_hits for r in self.results)

    @property
    def loop_cache_misses(self) -> int:
        """Loops actually profiled/scheduled across executed jobs."""
        return sum(r.loop_cache_misses for r in self.results)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process corpus memo: jobs sweeping configurations re-run the same
#: (benchmark, scale) corpora, and corpus construction (plus the per-loop
#: analyses memoized off its DDGs) is pure, so each worker builds each
#: corpus once instead of once per job.  Bounded FIFO: corpora pin their
#: DDGs (and thereby the weak-keyed loop analyses), so an unbounded memo
#: would grow for the life of a long-lived driver process.
_CORPUS_CACHE: Dict[Any, Any] = {}
_CORPUS_CACHE_LIMIT = 32


def _corpus_for(spec, scale: float):
    from repro.workloads.corpus import build_corpus

    # Keyed by the *spec* (frozen, hashable), not the name: two jobs may
    # carry different definitions under one workload name (e.g. an
    # edited pack workload), and a name-keyed memo would serve the
    # stale corpus.
    key = (spec, scale)
    corpus = _CORPUS_CACHE.get(key)
    if corpus is None:
        corpus = build_corpus(spec, scale=scale)
        while len(_CORPUS_CACHE) >= _CORPUS_CACHE_LIMIT:
            _CORPUS_CACHE.pop(next(iter(_CORPUS_CACHE)))
        _CORPUS_CACHE[key] = corpus
    return corpus


def _worker_init(loop_dir: Optional[str], telemetry: bool = False) -> None:
    """One-time setup of a worker process (local slot child or remote).

    Attaches the store's on-disk loop cache once per process (instead
    of per job), mirrors the parent's tracing switch (span state is
    process-local, so enablement must be carried across the process
    boundary explicitly), and warms the heavyweight imports — workload
    profiles, pipeline stages — so the first job of each worker doesn't
    pay them inside its measured time.  Nothing else is needed: every
    job carries its machine and workload.
    """
    if telemetry:
        from repro.telemetry import enable_tracing

        enable_tracing()
    if loop_dir is not None:
        from repro.pipeline.cache import LOOP_CACHE

        LOOP_CACHE.attach_store(loop_dir)
    import repro.pipeline.stages  # noqa: F401
    import repro.workloads.spec_profiles  # noqa: F401


def _attach_for_job(cache, directory: Optional[str]):
    """Attach ``directory`` for one job; returns the restore thunk.

    The process-global cache must not keep pointing at a campaign store
    afterwards (the directory may be temporary, and store=None runs are
    promised to touch no disk).  No-op when the worker initializer
    already attached this very directory.
    """
    previous = cache.store_dir
    attached = directory is not None and (
        previous is None or str(previous) != str(directory)
    )
    if attached:
        cache.attach_store(directory)

    def restore() -> None:
        if not attached:
            return
        if previous is None:
            cache.detach_store()
        else:
            cache.attach_store(previous)

    return restore


def execute_job_payload(
    job_data: Dict[str, Any],
    loop_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one job from its dict form; never raises.

    What every worker runs: local slots (in a child process or, for
    one-slot campaigns and the inline runner, in-process) and remote
    ``repro worker`` processes alike.

    ``loop_dir`` attaches the pipeline's loop cache to an on-disk
    directory (the result store's ``loops/`` subdir), so per-loop
    profile and schedule artifacts persist across jobs, workers *and*
    campaign runs.  The payload records the loop cache's counter deltas.
    Children initialized by :func:`_worker_init` already point at the
    store, so the attach/restore dance only runs in-process.
    """
    started = time.perf_counter()
    try:
        job = ExperimentJob.from_dict(job_data)
        from repro.pipeline.cache import LOOP_CACHE
        from repro.pipeline.experiment import evaluate_corpus

        restore = _attach_for_job(LOOP_CACHE, loop_dir)
        try:
            loops_before = LOOP_CACHE.stats()
            with span(
                "job", benchmark=job.benchmark, config=job.config_label()
            ) as job_span:
                corpus = _corpus_for(job.spec, job.scale)
                evaluation = evaluate_corpus(corpus, job.options)
            loops_after = LOOP_CACHE.stats()
        finally:
            restore()
        return {
            "schema": 1,
            "job": job_data,
            "status": STATUS_OK,
            "elapsed_s": time.perf_counter() - started,
            "evaluation": evaluation.to_dict(),
            "error": None,
            "loop_cache": {
                name: loops_after[name] - loops_before[name]
                for name in loops_after
            },
            # Serialized span tree: JSON-safe, so it crosses the worker
            # boundary with the payload and lands in store + warehouse.
            "trace": None if job_span is None else job_span.to_dict(),
        }
    except Exception:
        return {
            "schema": 1,
            "job": job_data,
            "status": STATUS_ERROR,
            "elapsed_s": time.perf_counter() - started,
            "evaluation": None,
            "error": traceback.format_exc(),
        }


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def _result_from_payload(
    job: ExperimentJob, key: str, payload: Dict[str, Any], cached: bool
) -> JobResult:
    evaluation = payload.get("evaluation")
    return JobResult(
        job=job,
        key=key,
        status=payload.get("status", STATUS_ERROR),
        elapsed_s=payload.get("elapsed_s", 0.0),
        cached=cached,
        evaluation=(
            BenchmarkEvaluation.from_dict(evaluation)
            if evaluation is not None
            else None
        ),
        error=payload.get("error"),
        loop_cache=None if cached else payload.get("loop_cache"),
        trace=None if cached else payload.get("trace"),
    )


def run_campaign(
    jobs: Sequence[ExperimentJob],
    store: Optional[ResultStore] = None,
    n_jobs: int = 1,
    progress: Optional[Callable[[JobResult], None]] = None,
    recompute: bool = False,
) -> CampaignResult:
    """Execute ``jobs``, reusing cached results and sharding the rest.

    ``n_jobs`` bounds worker processes (1 runs in-process); ``progress``
    is invoked once per finished job, in completion order; ``recompute``
    forces fresh runs even for cached keys.  Successful results are
    persisted to ``store`` before the call returns; failures are
    reported but never cached, so a fixed configuration re-runs.

    Caching is two-granular: whole jobs are answered from ``store``
    without executing, and executed jobs reuse the per-loop profile and
    schedule artifacts persisted under ``store.loop_dir`` — so a resume
    whose job entries were invalidated re-schedules zero loops.

    Runs its own event loop: call it from synchronous code.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    import asyncio

    from repro.fleet import FleetCoordinator, LocalWorkers

    keyed = [(job, job.key()) for job in jobs]
    results: Dict[str, JobResult] = {}
    pending: Dict[str, ExperimentJob] = {}
    for job, key in keyed:
        if key in results or key in pending:  # duplicate job in the sequence
            continue
        payload = None if (store is None or recompute) else store.get(key)
        cached_result = None
        if payload is not None and payload.get("status") == STATUS_OK:
            try:
                cached_result = _result_from_payload(job, key, payload, cached=True)
            except Exception:
                # Stale or schema-incompatible entry (e.g. written by an
                # older code version): treat as a miss and recompute.
                cached_result = None
        if cached_result is None:
            pending[key] = job
            continue
        results[key] = cached_result
        if progress is not None:
            progress(cached_result)

    async def compute() -> None:
        # The coordinator writes each OK payload through to the store
        # before its future resolves, so this loop only reports.
        coordinator = FleetCoordinator(store=store)
        slots = min(n_jobs, len(pending))
        workers = LocalWorkers(
            coordinator,
            slots,
            loop_dir=None if store is None else str(store.loop_dir),
            # One slot runs in-process: there is nothing to parallelise.
            execute=execute_job_payload if slots == 1 else None,
        )
        futures = {
            coordinator.submit(key, job.to_dict())[0]: key
            for key, job in pending.items()
        }
        workers.ensure_started()
        try:
            waiting = set(futures)
            while waiting:
                done, waiting = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED
                )
                for future in done:
                    key, payload = futures[future], future.result()
                    result = _result_from_payload(
                        pending[key], key, payload, cached=False
                    )
                    results[key] = result
                    if result.status == STATUS_ERROR:
                        _log.warning(
                            "job failed",
                            extra={"key": key, "benchmark": result.job.benchmark},
                        )
                    if progress is not None:
                        progress(result)
        finally:
            await workers.close()

    if pending:
        asyncio.run(compute())
    return CampaignResult(results=[results[key] for _, key in keyed])

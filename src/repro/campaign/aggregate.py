"""Aggregation of campaign results: the one definition of each aggregate.

Turns rows of per-job ratios into the quantities the paper reports:
per-configuration suite means (the "mean" bar of Figure 6), the best
row per benchmark, and the Pareto frontier of the energy/time trade-off
over the explored option grid.

The aggregates take *rows*: any objects with ``.benchmark``,
``.config`` and the three :data:`METRICS` attributes.  A live campaign
report passes :class:`RatioRow` objects from :func:`ratio_rows`; the
warehouse queries pass its :class:`~repro.warehouse.db.JobRow` objects —
so a query over a freshly ingested store matches what the campaign
reported, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.campaign.executor import JobResult
from repro.campaign.job import ExperimentJob
from repro.campaign.store import ResultStore
from repro.pipeline.experiment import BenchmarkEvaluation

#: The per-job ratios a query may rank, average or diff on.
METRICS = ("ed2_ratio", "energy_ratio", "time_ratio")


def check_metric(metric: str) -> None:
    """Raise :class:`ValueError` unless ``metric`` is one of :data:`METRICS`."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; pick one of {METRICS}")


@dataclass(frozen=True)
class RatioRow:
    """The paper's headline ratios for one finished job."""

    benchmark: str
    config: str
    ed2_ratio: float
    energy_ratio: float
    time_ratio: float
    elapsed_s: float
    cached: bool

    @classmethod
    def from_result(cls, result: JobResult) -> "RatioRow":
        evaluation = result.evaluation
        assert evaluation is not None
        return cls(
            benchmark=result.job.benchmark,
            config=result.job.config_label(),
            ed2_ratio=evaluation.ed2_ratio,
            energy_ratio=evaluation.energy_ratio,
            time_ratio=evaluation.time_ratio,
            elapsed_s=result.elapsed_s,
            cached=result.cached,
        )


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated configuration (means over its benchmarks)."""

    config: str
    a: float
    b: float
    n_benchmarks: int


def ratio_rows(results: Sequence[JobResult]) -> List[RatioRow]:
    """One row per successful job, in (benchmark, config) order."""
    rows = [RatioRow.from_result(r) for r in results if r.ok]
    return sorted(rows, key=lambda row: (row.benchmark, row.config))


def config_means(rows: Sequence[Any]) -> Dict[str, Dict[str, float]]:
    """Suite means per configuration label.

    The arithmetic mean over benchmarks of each ratio — the quantity the
    paper's "mean" bars report — plus the benchmark count backing it.
    Rows are summed in the order given.
    """
    groups: Dict[str, List[Any]] = {}
    for row in rows:
        groups.setdefault(row.config, []).append(row)
    means: Dict[str, Dict[str, float]] = {}
    for config, group in sorted(groups.items()):
        count = len(group)
        means[config] = {"n_benchmarks": count}
        for metric in METRICS:
            means[config][f"mean_{metric}"] = (
                sum(getattr(row, metric) for row in group) / count
            )
    return means


def best_rows(rows: Sequence[Any], metric: str = "ed2_ratio") -> List[Any]:
    """Per benchmark, the first row minimising ``metric``; by benchmark."""
    check_metric(metric)
    best: Dict[str, Any] = {}
    for row in rows:
        incumbent = best.get(row.benchmark)
        if incumbent is None or getattr(row, metric) < getattr(
            incumbent, metric
        ):
            best[row.benchmark] = row
    return [best[name] for name in sorted(best)]


def pareto_frontier(
    rows: Sequence[Any],
    objectives: Tuple[str, str] = ("energy_ratio", "time_ratio"),
) -> List[ParetoPoint]:
    """Non-dominated configurations over the rows' config means.

    Both objectives are minimised.  A configuration is on the frontier
    when no other configuration is at least as good on both objectives
    and strictly better on one.  Returned sorted by the first objective.
    """
    for objective in objectives:
        check_metric(objective)
    key_a, key_b = (f"mean_{objective}" for objective in objectives)
    points = [
        ParetoPoint(
            config=config,
            a=stats[key_a],
            b=stats[key_b],
            n_benchmarks=int(stats["n_benchmarks"]),
        )
        for config, stats in config_means(rows).items()
    ]
    frontier = [
        point
        for point in points
        if not any(
            other.a <= point.a
            and other.b <= point.b
            and (other.a < point.a or other.b < point.b)
            for other in points
        )
    ]
    return sorted(frontier, key=lambda point: (point.a, point.b))


# ----------------------------------------------------------------------
# querying an existing cache directory
# ----------------------------------------------------------------------
def load_results(store: ResultStore) -> List[JobResult]:
    """Rebuild :class:`JobResult` objects for every cached entry.

    Entries that cannot be deserialized (stale schema, hand-edited
    files) are skipped rather than failing the whole query.
    """
    results: List[JobResult] = []
    for payload in store.entries():
        job_data = payload.get("job")
        evaluation_data = payload.get("evaluation")
        if job_data is None or evaluation_data is None:
            continue
        try:
            job = ExperimentJob.from_dict(job_data)
            evaluation = BenchmarkEvaluation.from_dict(evaluation_data)
        except Exception:
            continue
        results.append(
            JobResult(
                job=job,
                key=payload.get("key") or job.key(),
                status=payload.get("status", "ok"),
                elapsed_s=payload.get("elapsed_s", 0.0),
                cached=True,
                evaluation=evaluation,
            )
        )
    return results

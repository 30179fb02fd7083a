"""Rendering warehouse queries as ASCII reports."""

from __future__ import annotations

import datetime
from typing import Optional, Sequence

from repro.reporting.tables import render_table
from repro.warehouse.db import JobRow, Warehouse
from repro.warehouse.queries import (
    DiffRow,
    ParetoPoint,
    best_points,
    pareto_frontier,
)


def _population(selector: Optional[str]) -> str:
    return "all history" if selector is None else selector


def warehouse_summary_table(warehouse: Warehouse) -> str:
    """Headline counts plus one row per campaign."""
    summary = warehouse.summary()
    rows = [
        (
            campaign["label"],
            campaign["n_jobs"],
            datetime.datetime.fromtimestamp(
                campaign["created_at"]
            ).strftime("%Y-%m-%d %H:%M"),
        )
        for campaign in warehouse.campaigns()
    ]
    return render_table(
        ["campaign", "jobs", "created"],
        rows,
        title=(
            f"Warehouse {summary['path']}: {summary['jobs']} job(s), "
            f"{summary['benchmarks']} benchmark(s), "
            f"{summary['configs']} config(s), "
            f"{summary['machines']} machine(s)"
        ),
    )


def warehouse_jobs_table(rows: Sequence[JobRow]) -> str:
    """Per-job ratio table over indexed jobs."""
    return render_table(
        ["key", "benchmark", "config", "machine", "ED^2", "energy", "time"],
        [
            (
                row.key,
                row.benchmark,
                row.config,
                row.machine,
                f"{row.ed2_ratio:.3f}",
                f"{row.energy_ratio:.3f}",
                f"{row.time_ratio:.3f}",
            )
            for row in rows
        ],
        title=f"Indexed jobs ({len(rows)})",
    )


def warehouse_best_table(
    warehouse: Warehouse,
    selector: Optional[str] = None,
    metric: str = "ed2_ratio",
    rows: Optional[Sequence[JobRow]] = None,
) -> str:
    """Best job per benchmark over a selection.

    ``rows`` short-circuits the query when the caller already ran
    :func:`best_points` (possibly with extra filters, e.g. a single
    benchmark) — the table then renders exactly those rows.
    """
    if rows is None:
        rows = best_points(warehouse, selector, metric=metric)
    rows = [
        (
            row.benchmark,
            row.config,
            row.machine,
            f"{getattr(row, metric):.3f}",
            row.key,
        )
        for row in rows
    ]
    return render_table(
        ["benchmark", "best config", "machine", metric, "job"],
        rows,
        title=f"Best point per benchmark (min {metric}, {_population(selector)})",
    )


def warehouse_pareto_table(
    warehouse: Warehouse,
    selector: Optional[str] = None,
    points: Optional[Sequence[ParetoPoint]] = None,
) -> str:
    """Energy/time Pareto frontier over a selection's config means."""
    if points is None:
        points = pareto_frontier(warehouse, selector)
    rows = [
        (point.config, f"{point.a:.3f}", f"{point.b:.3f}", point.n_benchmarks)
        for point in points
    ]
    return render_table(
        ["config", "mean energy", "mean time", "benchmarks"],
        rows,
        title=(
            "Pareto frontier (energy vs time, config means, "
            f"{_population(selector)})"
        ),
    )


def warehouse_cache_table(
    rows: Sequence[Sequence], selector: Optional[str] = None
) -> str:
    """Aggregated loop-cache counters over a warehouse selection.

    The incremental story at a glance: a warm sweep shows loop hits
    dominating with zero loop misses.
    """
    return render_table(
        ["counter", "total", "jobs"],
        rows,
        title=f"Cache counters ({_population(selector)})",
    )


def warehouse_diff_table(
    diffs: Sequence[DiffRow], a: str, b: str, metric: str = "ed2_ratio"
) -> str:
    """Regression diff table between two selections."""
    rows = [
        (
            diff.benchmark,
            diff.config,
            f"{diff.a_value:.3f}",
            f"{diff.b_value:.3f}",
            f"{diff.delta:+.3f}",
            "REGRESSED" if diff.regressed else ("improved" if diff.delta < 0 else "same"),
        )
        for diff in diffs
    ]
    regressed = sum(1 for diff in diffs if diff.regressed)
    return render_table(
        ["benchmark", "config", a, b, "delta", "verdict"],
        rows,
        title=(
            f"Regression diff on {metric}: {a} -> {b} "
            f"({regressed}/{len(diffs)} regressed)"
        ),
    )

"""Rendering warehouse query documents as ASCII reports.

Each table renders the JSON document :func:`repro.warehouse.run_query`
returns for its op, so ``repro query`` prints the same answer as a
table that ``--output json`` and ``/v1/query/*`` print as JSON.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, Optional, Sequence

from repro.reporting.tables import render_table
from repro.reporting.telemetry import warehouse_spans_table
from repro.reporting.timeline import render_timeline

Document = Dict[str, Any]


def _population(selector: Optional[str]) -> str:
    return "all history" if selector is None else selector


def warehouse_summary_table(document: Document) -> str:
    """Headline counts plus one row per campaign (``summary``)."""
    summary = document["summary"]
    rows = [
        (
            campaign["label"],
            campaign["n_jobs"],
            datetime.datetime.fromtimestamp(
                campaign["created_at"]
            ).strftime("%Y-%m-%d %H:%M"),
        )
        for campaign in document["campaigns"]
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


def warehouse_jobs_table(document: Document) -> str:
    """Per-job ratio table over indexed jobs (``jobs``)."""
    rows = document["jobs"]
    return render_table(
        ["key", "benchmark", "config", "machine", "ED^2", "energy", "time"],
        [
            (
                row["key"],
                row["benchmark"],
                row["config"],
                row["machine"],
                f"{row['ed2_ratio']:.3f}",
                f"{row['energy_ratio']:.3f}",
                f"{row['time_ratio']:.3f}",
            )
            for row in rows
        ],
        title=f"Indexed jobs ({len(rows)})",
    )


def warehouse_best_table(
    document: Document,
    selector: Optional[str] = None,
    metric: str = "ed2_ratio",
) -> str:
    """Best job per benchmark over a selection (``best``)."""
    rows = [
        (
            row["benchmark"],
            row["config"],
            row["machine"],
            f"{row[metric]:.3f}",
            row["key"],
        )
        for row in document["best"]
    ]
    return render_table(
        ["benchmark", "best config", "machine", metric, "job"],
        rows,
        title=f"Best point per benchmark (min {metric}, {_population(selector)})",
    )


def warehouse_pareto_table(
    document: Document, selector: Optional[str] = None
) -> str:
    """Energy/time Pareto frontier over a selection's config means."""
    rows = [
        (
            point["config"],
            f"{point['a']:.3f}",
            f"{point['b']:.3f}",
            point["n_benchmarks"],
        )
        for point in document["pareto"]
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
    document: Document, selector: Optional[str] = None
) -> str:
    """Aggregated loop-cache counters over a warehouse selection.

    The incremental story at a glance: a warm sweep shows loop hits
    dominating with zero loop misses.
    """
    return render_table(
        ["counter", "total", "jobs"],
        [(row["counter"], row["total"], row["jobs"]) for row in document["cache"]],
        title=f"Cache counters ({_population(selector)})",
    )


def warehouse_diff_table(document: Document, a: str, b: str) -> str:
    """Regression diff table between two selections (``diff``)."""
    diffs = document["diff"]
    rows = [
        (
            diff["benchmark"],
            diff["config"],
            f"{diff['a_value']:.3f}",
            f"{diff['b_value']:.3f}",
            f"{diff['delta']:+.3f}",
            "REGRESSED"
            if diff["regressed"]
            else ("improved" if diff["delta"] < 0 else "same"),
        )
        for diff in diffs
    ]
    return render_table(
        ["benchmark", "config", a, b, "delta", "verdict"],
        rows,
        title=(
            f"Regression diff on {document['metric']}: {a} -> {b} "
            f"({document['regressed']}/{len(diffs)} regressed)"
        ),
    )


def render_query(
    op: str,
    document: Document,
    selectors: Sequence[str] = (),
    metric: str = "ed2_ratio",
) -> str:
    """The table for one :func:`~repro.warehouse.run_query` document."""
    selector = selectors[0] if selectors else None
    if op in ("summary", "campaigns"):
        return warehouse_summary_table(document)
    if op == "jobs":
        return warehouse_jobs_table(document)
    if op == "best":
        return warehouse_best_table(document, selector, metric)
    if op == "pareto":
        return warehouse_pareto_table(document, selector)
    if op == "spans":
        return warehouse_spans_table(document, selector)
    if op == "cache":
        return warehouse_cache_table(document, selector)
    if op == "timeline":
        return render_timeline(document)
    return warehouse_diff_table(document, *selectors)

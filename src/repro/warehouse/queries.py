"""Cross-campaign queries over the warehouse index, behind one dispatcher.

Every query here consumes :class:`~repro.warehouse.db.Warehouse` rows
only — no result-store JSON is opened — so queries over years of
accumulated campaigns cost what a SQLite scan costs.  Selectors name
the population: ``None`` (all history), a campaign label, or
``machine:NAME``.

:func:`run_query` answers every op in :data:`QUERY_OPS` with one JSON
document; ``repro query``, the service's ``/v1/query/*`` endpoints and
``ServiceClient.query`` all return (or render) that document.  Means,
best points and Pareto dominance are :mod:`repro.campaign.aggregate`'s,
applied to the warehouse's job rows, so a query over a freshly ingested
store matches what the live campaign reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import (
    best_rows,
    check_metric,
    pareto_frontier,
)
from repro.warehouse.db import JobRow, Warehouse, WarehouseError

#: Every query op, with the (least, most) number of selectors it takes.
QUERY_OPS: Dict[str, Tuple[int, int]] = {
    "summary": (0, 0),
    "campaigns": (0, 0),
    "jobs": (0, 1),
    "best": (0, 1),
    "pareto": (0, 1),
    "spans": (0, 1),
    "cache": (0, 1),
    "diff": (2, 2),
    "timeline": (1, 1),
}


@dataclass(frozen=True)
class DiffRow:
    """One matched (benchmark, config) pair of a regression diff."""

    benchmark: str
    config: str
    a_value: float
    b_value: float

    @property
    def delta(self) -> float:
        """``b - a``: positive means B is worse (ratios are minimized)."""
        return self.b_value - self.a_value

    @property
    def regressed(self) -> bool:
        """True when B is strictly worse than A on the diffed metric."""
        return self.delta > 0


# ----------------------------------------------------------------------
def regression_diff(
    warehouse: Warehouse,
    selector_a: str,
    selector_b: str,
    metric: str = "ed2_ratio",
) -> List[DiffRow]:
    """Job-level diff of two selections, matched pairwise.

    Campaign-vs-campaign comparisons match on the full ``(benchmark,
    scale, config)`` identity; as soon as either side selects a machine
    (``machine:NAME``) or the two sides disagree on machines, matching
    falls back to the machine-stripped config — the question becomes
    "same experiment, different machine".  Rows appear once per matched
    pair; unmatched jobs are dropped (they have nothing to regress
    against).
    """
    check_metric(metric)
    rows_a = warehouse.job_rows(selector_a)
    rows_b = warehouse.job_rows(selector_b)
    machines = {row.machine for row in rows_a} | {row.machine for row in rows_b}
    by_machine = (
        selector_a.startswith("machine:")
        or selector_b.startswith("machine:")
        or len(machines) > 1
    )

    def join_key(row: JobRow) -> Tuple:
        config = row.config_rest if by_machine else row.config
        return (row.benchmark, row.scale, config)

    def index(rows: Sequence[JobRow]) -> Dict[Tuple, JobRow]:
        indexed: Dict[Tuple, JobRow] = {}
        for row in rows:
            # Several jobs can share a machine-stripped key (e.g. two
            # campaigns on the same machine): keep the best, the value
            # a user comparing machines actually cares about.
            incumbent = indexed.get(join_key(row))
            if incumbent is None or getattr(row, metric) < getattr(
                incumbent, metric
            ):
                indexed[join_key(row)] = row
        return indexed

    indexed_a, indexed_b = index(rows_a), index(rows_b)
    diffs = [
        DiffRow(
            benchmark=key[0],
            config=indexed_a[key].config_rest if by_machine else key[2],
            a_value=getattr(indexed_a[key], metric),
            b_value=getattr(indexed_b[key], metric),
        )
        for key in sorted(indexed_a.keys() & indexed_b.keys())
    ]
    return diffs


# ----------------------------------------------------------------------
def run_query(
    warehouse: Warehouse,
    op: str,
    selectors: Sequence[str] = (),
    benchmark: Optional[str] = None,
    metric: str = "ed2_ratio",
) -> Dict[str, Any]:
    """Answer one query op with its JSON document.

    ``benchmark`` narrows ``jobs`` and ``best``; ``metric`` ranks
    ``best`` and ``diff``.  Raises :class:`ValueError` for an unknown op
    or metric or a wrong number of selectors, and
    :class:`~repro.warehouse.db.WarehouseError` for a selector that
    names nothing.
    """
    if op not in QUERY_OPS:
        raise ValueError(f"unknown query {op!r}; pick one of {tuple(QUERY_OPS)}")
    least, most = QUERY_OPS[op]
    if not least <= len(selectors) <= most:
        wanted = f"{least}" if least == most else f"{least} to {most}"
        raise ValueError(
            f"query {op} takes {wanted} selector(s), got {len(selectors)}"
        )
    check_metric(metric)
    selector = selectors[0] if selectors else None
    if op in ("summary", "campaigns"):
        return {"summary": warehouse.summary(), "campaigns": warehouse.campaigns()}
    if op == "jobs":
        rows = warehouse.job_rows(selector, benchmark=benchmark)
        return {"jobs": [vars(row) for row in rows]}
    if op == "best":
        rows = warehouse.job_rows(selector, benchmark=benchmark)
        return {"best": [vars(row) for row in best_rows(rows, metric)]}
    if op == "pareto":
        points = pareto_frontier(warehouse.job_rows(selector))
        return {"pareto": [vars(point) for point in points]}
    if op == "spans":
        return {
            "spans": [
                {"span": span, "n": n, "total_s": total_s, "jobs": jobs}
                for span, n, total_s, jobs in warehouse.span_rows(selector)
            ]
        }
    if op == "cache":
        return {
            "cache": [
                {"counter": counter, "total": total, "jobs": jobs}
                for counter, total, jobs in warehouse.cache_rows(selector)
            ]
        }
    if op == "timeline":
        document = warehouse.trace(selector)
        if document is None:
            raise WarehouseError(f"no trace for {selector!r}")
        return document
    diffs = regression_diff(warehouse, *selectors, metric=metric)
    return {
        "metric": metric,
        "regressed": sum(1 for diff in diffs if diff.regressed),
        "diff": [
            dict(vars(diff), delta=diff.delta, regressed=diff.regressed)
            for diff in diffs
        ],
    }

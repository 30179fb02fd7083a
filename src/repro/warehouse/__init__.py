"""Queryable SQLite warehouse over campaign results.

The :class:`~repro.campaign.store.ResultStore` is the only record —
job entries, campaign labels (``campaigns/``), settled traces
(``traces/``) — but answering any cross-campaign question against it
means re-reading every file.  This package layers a SQLite *index*,
rebuilt wholly from those files, over one or many stores:
:class:`Warehouse` ingests cache directories (and stays incrementally
in sync as the service or a CLI campaign writes them), and
:func:`~repro.warehouse.queries.run_query` answers the questions the
paper's evaluation keeps asking — best points, the Pareto frontier
over *all* recorded history, regression diffs between two campaigns or
two machines — from the index alone, without touching the JSON again.

Front-ends, all answering with :func:`run_query`'s documents:
``python -m repro query``, the service's ``/v1/query/*`` endpoints and
``ServiceClient.query``.
"""

from repro.warehouse.db import (
    DEFAULT_WAREHOUSE_NAME,
    IngestReport,
    JobRow,
    Warehouse,
    WarehouseError,
)
from repro.warehouse.queries import (
    QUERY_OPS,
    DiffRow,
    regression_diff,
    run_query,
)

__all__ = [
    "DEFAULT_WAREHOUSE_NAME",
    "IngestReport",
    "JobRow",
    "Warehouse",
    "WarehouseError",
    "QUERY_OPS",
    "DiffRow",
    "regression_diff",
    "run_query",
]

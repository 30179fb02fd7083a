"""Campaign orchestration: parallel, cached, resumable experiment sweeps.

The paper's evaluation is a grid of (benchmark x configuration) pipeline
runs; this subsystem expands such grids into content-addressed
:class:`ExperimentJob` units, shards them across worker processes,
persists every result as JSON keyed by the job hash, and aggregates the
outcomes (suite means, best points, Pareto frontiers).  See
``python -m repro campaign --help`` for the CLI front-end.
"""

from repro.campaign.job import ExperimentJob
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import DEFAULT_CACHE_DIR, ResultStore, StoreError
from repro.campaign.executor import (
    CampaignResult,
    JobResult,
    execute_job_payload,
    run_campaign,
)
from repro.campaign.aggregate import (
    METRICS,
    ParetoPoint,
    RatioRow,
    best_rows,
    check_metric,
    config_means,
    load_results,
    pareto_frontier,
    ratio_rows,
)

__all__ = [
    "ExperimentJob",
    "CampaignSpec",
    "DEFAULT_CACHE_DIR",
    "ResultStore",
    "StoreError",
    "CampaignResult",
    "JobResult",
    "execute_job_payload",
    "run_campaign",
    "METRICS",
    "ParetoPoint",
    "RatioRow",
    "best_rows",
    "check_metric",
    "config_means",
    "load_results",
    "pareto_frontier",
    "ratio_rows",
]

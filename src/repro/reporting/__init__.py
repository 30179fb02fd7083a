"""ASCII reporting: tables, bar charts, and paper-expected values."""

from repro.reporting.tables import render_table
from repro.reporting.figures import bar_chart
from repro.reporting.schedule_view import render_kernel
from repro.reporting.campaign import (
    campaign_best_table,
    campaign_means_table,
    campaign_pareto_table,
    campaign_results_table,
    campaign_summary,
)
from repro.reporting.scenarios import scenario_detail, scenario_list_table
from repro.reporting.telemetry import render_trace, warehouse_spans_table
from repro.reporting.timeline import render_timeline, timeline_attribution
from repro.reporting.warehouse import (
    render_query,
    warehouse_best_table,
    warehouse_cache_table,
    warehouse_diff_table,
    warehouse_jobs_table,
    warehouse_pareto_table,
    warehouse_summary_table,
)
from repro.reporting.paper import (
    PAPER_FIGURE6_ED2,
    PAPER_FIGURE7_DEGRADATION,
    PAPER_TABLE2_SHARES,
    comparison_rows,
)

__all__ = [
    "render_table",
    "bar_chart",
    "render_kernel",
    "campaign_best_table",
    "campaign_means_table",
    "campaign_pareto_table",
    "campaign_results_table",
    "campaign_summary",
    "render_query",
    "render_trace",
    "render_timeline",
    "timeline_attribution",
    "scenario_detail",
    "scenario_list_table",
    "warehouse_spans_table",
    "warehouse_best_table",
    "warehouse_cache_table",
    "warehouse_diff_table",
    "warehouse_jobs_table",
    "warehouse_pareto_table",
    "warehouse_summary_table",
    "PAPER_FIGURE6_ED2",
    "PAPER_FIGURE7_DEGRADATION",
    "PAPER_TABLE2_SHARES",
    "comparison_rows",
]

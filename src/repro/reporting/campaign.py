"""Rendering campaign results as ASCII reports."""

from __future__ import annotations

from typing import Sequence

from repro.campaign.aggregate import (
    best_configurations,
    config_means,
    pareto_frontier,
    ratio_rows,
)
from repro.campaign.executor import CampaignResult, JobResult
from repro.reporting.tables import render_table


def campaign_results_table(results: Sequence[JobResult]) -> str:
    """Per-job ratio table (one row per successful job)."""
    rows = [
        (
            row.benchmark,
            row.config,
            f"{row.ed2_ratio:.3f}",
            f"{row.energy_ratio:.3f}",
            f"{row.time_ratio:.3f}",
            "hit" if row.cached else f"{row.elapsed_s:.1f}s",
        )
        for row in ratio_rows(results)
    ]
    return render_table(
        ["benchmark", "config", "ED^2", "energy", "time", "cache"],
        rows,
        title="Campaign results (ratios vs optimum homogeneous)",
    )


def campaign_means_table(results: Sequence[JobResult]) -> str:
    """Suite means per configuration (the paper's "mean" bars)."""
    rows = [
        (
            config,
            stats["n_benchmarks"],
            f"{stats['mean_ed2_ratio']:.3f}",
            f"{stats['mean_energy_ratio']:.3f}",
            f"{stats['mean_time_ratio']:.3f}",
        )
        for config, stats in config_means(results).items()
    ]
    return render_table(
        ["config", "benchmarks", "mean ED^2", "mean energy", "mean time"],
        rows,
        title="Suite means by configuration",
    )


def campaign_best_table(results: Sequence[JobResult]) -> str:
    """Best configuration per benchmark by ED^2 ratio."""
    rows = [
        (benchmark, row.config, f"{row.ed2_ratio:.3f}")
        for benchmark, row in best_configurations(results).items()
    ]
    return render_table(
        ["benchmark", "best config", "ED^2"],
        rows,
        title="Best configuration per benchmark (min ED^2 ratio)",
    )


def campaign_pareto_table(results: Sequence[JobResult]) -> str:
    """Energy/time Pareto frontier over the configuration means."""
    rows = [
        (config, f"{energy:.3f}", f"{time:.3f}")
        for config, energy, time in pareto_frontier(results)
    ]
    return render_table(
        ["config", "mean energy", "mean time"],
        rows,
        title="Pareto frontier (energy vs time, suite means)",
    )


def campaign_summary(result: CampaignResult) -> str:
    """One-line execution summary of a campaign run."""
    n_failed = len(result.failed)
    parts = [
        f"{len(result)} job(s)",
        f"{result.n_cached} cache hit(s)",
        f"{len(result) - result.n_cached - n_failed} computed",
    ]
    if n_failed:
        parts.append(f"{n_failed} FAILED")
    loop_hits = result.loop_cache_hits
    if loop_hits:
        parts.append(
            f"{loop_hits} loop-cache hit(s) "
            f"({result.loop_cache_memory_hits} memory + "
            f"{result.loop_cache_disk_hits} disk)"
        )
    parts.append(f"{result.total_elapsed_s:.1f}s compute")
    return ", ".join(parts)

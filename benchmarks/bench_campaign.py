"""Campaign orchestration: cold-vs-warm cache and loop-cache reuse.

Times one small campaign twice against the same result store.  The cold
pass pays the full pipeline cost per job; the warm pass answers every
job from the content-addressed cache, so the measured speed-up is the
orchestration layer's whole value proposition in one number.  Also
prints the per-configuration suite means the campaign aggregates.
"""

import tempfile

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.pipeline.cache import clear_loop_cache
from repro.reporting import campaign_means_table, campaign_summary

from common import corpus_scale, publish

SPEC = CampaignSpec(
    benchmarks=("171.swim", "172.mgrid"),
    scale=corpus_scale(),
    buses_grid=(1, 2),
    simulate=False,
)


def run_once(store: ResultStore):
    return run_campaign(SPEC.expand(), store=store, n_jobs=1)


def bench_campaign(benchmark):
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        clear_loop_cache()
        cold = run_once(store)

        # The timed pass hits the cache for every job.
        warm = benchmark.pedantic(
            run_once, args=(store,), rounds=3, iterations=1
        )

        lines = [
            f"cold: {campaign_summary(cold)}",
            f"warm: {campaign_summary(warm)}",
            "",
            campaign_means_table(warm.results),
        ]
        publish(
            "campaign_cache",
            "\n".join(lines),
            data={
                "jobs": len(warm),
                "cold_compute_s": cold.total_elapsed_s,
                "warm_compute_s": warm.total_elapsed_s,
                "warm_cached_jobs": warm.n_cached,
            },
        )
        assert warm.n_cached == len(warm)

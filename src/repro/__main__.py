"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``evaluate <benchmark>`` — run the full pipeline for one SPECfp2000
  benchmark and print the Figure 6 row (``--buses``, ``--scale``,
  ``--machine-file``, ``--output json``),
* ``suite`` — run every benchmark and print the Figure 6 chart,
* ``campaign`` — expand a (benchmarks x option grids) sweep into jobs,
  run them in parallel with on-disk whole-job *and* loop-granular
  caching, and print the aggregate tables (``--jobs``, ``--buses``,
  ``--machine-file``, ``--ablate``, ``--cache-dir``),
* ``table2`` — print the measured constraint-class time shares,
* ``bench`` — time the pipeline per stage per benchmark, write
  ``BENCH_pipeline.json``, and optionally gate against a baseline
  (``--check benchmarks/perf_baseline.json --tolerance 0.25``),
* ``scenarios`` — list, validate, describe or export declarative
  scenario packs (``--validate``, ``--describe``, ``--export``),
* ``serve`` — run the async evaluation service: submit evaluate/suite/
  campaign jobs over HTTP, deduplicated by content-addressed job keys,
  with the SQLite warehouse kept in sync (``--host``, ``--port``,
  ``--cache-dir``, ``--jobs``, ``--runner``),
* ``query`` — ``ingest`` cache dirs into the warehouse, or ask it one
  of the cross-campaign questions in ``repro.warehouse.QUERY_OPS``
  (``summary``, ``campaigns``, ``jobs``, ``best``, ``pareto``,
  ``spans``, ``cache``, ``diff``, ``timeline``; ``--db``, ``--label``,
  ``--benchmark``, ``--metric``, ``--output json``),
* ``trace`` — run ``evaluate`` or ``suite`` with tracing enabled and
  print the span tree showing where the wall time went
  (``--output json`` for the raw tree),
* ``list`` — list the available benchmarks.

Top-level ``-v/--verbose`` and ``-q/--quiet`` (repeatable) configure
structured logging for every command; ``REPRO_LOG=json`` switches the
format.

``python -m repro --version`` prints the package version (installed
distribution metadata when available, the source tree's fallback
otherwise).

``evaluate``/``suite``/``campaign`` also take ``--machine-file`` (a
scenario pack file; ``paper`` for the paper machine), and
``evaluate``/``campaign`` take ``--workloads`` (a pack whose workloads
benchmark names may refer to; ``suite`` runs only the built-in
profiles); see ``docs/cli.md`` for the full reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.campaign.aggregate import METRICS
from repro.pipeline import Experiment, ExperimentOptions
from repro.reporting import bar_chart, render_table
from repro.warehouse.queries import QUERY_OPS
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile


def _package_version() -> str:
    """The version ``--version`` reports.

    Prefers the installed distribution's metadata (what ``pip`` sees);
    source-tree runs (``PYTHONPATH=src``) have no metadata and fall
    back to :data:`repro.__version__`.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: print ``repro <version>`` and exit.

    argparse's own ``version`` action needs the text when the parser is
    built; this one looks the version up only when the flag is given, so
    every other command skips the metadata lookup.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(
            option_strings,
            dest=dest,
            default=argparse.SUPPRESS,
            nargs=0,
            help=help,
        )

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(f"repro {_package_version()}\n")
        parser.exit()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Heterogeneous Clustered VLIW "
        "Microarchitectures' (CGO 2007)",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="show program's version number and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging on stderr (-v INFO, -vv DEBUG; repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less logging on stderr (-q errors only; repeatable)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_machine_flags(
        subparser, campaign_files: bool = False, workloads: bool = True
    ) -> None:
        if campaign_files:
            subparser.add_argument(
                "--machine-file",
                action="append",
                default=[],
                metavar="PACK",
                help="scenario pack file (or bundled pack name) to add to "
                "the machine sweep (repeatable); 'paper' adds the paper "
                "machine, which is also the default",
            )
        else:
            subparser.add_argument(
                "--machine-file",
                default=None,
                metavar="PACK",
                help="scenario pack file (or bundled pack name) declaring "
                "the machine (default: the paper machine)",
            )
        if not workloads:  # the verb runs only the built-in profiles
            return
        subparser.add_argument(
            "--workloads",
            action="append",
            default=[],
            metavar="PACK",
            help="scenario pack (bundled name or file) whose workloads "
            "benchmark names may refer to (repeatable)",
        )

    evaluate = commands.add_parser(
        "evaluate", help="run the pipeline for one benchmark"
    )
    evaluate.add_argument("benchmark", help="e.g. 200.sixtrack or sixtrack")
    evaluate.add_argument("--buses", type=int, default=1, choices=(1, 2))
    evaluate.add_argument("--scale", type=float, default=0.05)
    evaluate.add_argument(
        "--output",
        choices=("table", "json"),
        default="table",
        help="result format: human table (default) or canonical JSON",
    )
    add_machine_flags(evaluate)

    suite = commands.add_parser("suite", help="run all ten benchmarks")
    suite.add_argument("--buses", type=int, default=1, choices=(1, 2))
    suite.add_argument("--scale", type=float, default=0.05)
    suite.add_argument(
        "--output",
        choices=("table", "json"),
        default="table",
        help="result format: Figure 6 chart (default) or canonical JSON",
    )
    add_machine_flags(suite, workloads=False)

    campaign = commands.add_parser(
        "campaign",
        help="run a cached, parallel sweep over benchmarks x configurations",
    )
    campaign.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated benchmark names, or 'all' (default)",
    )
    campaign.add_argument("--scale", type=float, default=0.05)
    campaign.add_argument(
        "--buses",
        default="1",
        help="comma-separated bus counts to sweep, e.g. '1,2' (default 1)",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1: run inline)",
    )
    campaign.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro-cache)",
    )
    campaign.add_argument(
        "--ablate",
        action="append",
        default=[],
        choices=("preplace", "ed2-refinement", "sync-penalties", "per-class-energy"),
        help="sweep this knob over {on, off} (repeatable)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="run without reading or writing the result store",
    )
    campaign.add_argument(
        "--recompute",
        action="store_true",
        help="ignore cached results but still write fresh ones",
    )
    campaign.add_argument(
        "--report-only",
        action="store_true",
        help="skip execution; aggregate whatever the cache already holds",
    )
    campaign.add_argument(
        "--label",
        default=None,
        help="file this run's jobs under a named campaign in the cache "
        "(enables `repro query diff <label> ...` later); without it, "
        "jobs are indexed but not grouped",
    )
    add_machine_flags(campaign, campaign_files=True)

    scenarios = commands.add_parser(
        "scenarios",
        help="list, validate, describe or export declarative scenario packs",
    )
    scenarios.add_argument(
        "packs",
        nargs="*",
        metavar="PACK",
        help="bundled pack names or scenario file paths (default: every "
        "bundled pack)",
    )
    scenarios.add_argument(
        "--validate",
        action="store_true",
        help="validate the packs; exit 1 if any fails",
    )
    scenarios.add_argument(
        "--describe",
        action="store_true",
        help="print the full machine/workload tables of each pack",
    )
    scenarios.add_argument(
        "--export",
        action="store_true",
        help="print each pack's canonical TOML form (load -> export "
        "round trip)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the async evaluation service (HTTP + SQLite warehouse)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 picks a free one; default 8321)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="result store + warehouse directory (default .repro-cache)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="local worker slots, each with its own child process "
        "(default 2; 0 disables local execution so only fleet workers "
        "connected via `repro worker` run jobs)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="fleet lease TTL in seconds: a worker silent this long "
        "forfeits its job back to the queue (default 60)",
    )
    serve.add_argument(
        "--fleet-retries",
        type=int,
        default=3,
        help="how many lease attempts a job gets before an expiry "
        "records it as failed (default 3)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="on SIGINT/SIGTERM: stop granting leases, then wait up to "
        "this many seconds for in-flight leases before exiting",
    )
    serve.add_argument(
        "--runner",
        choices=("process", "inline"),
        default="process",
        help="'process' runs each slot's jobs in a child process that is "
        "respawned if it dies (default); 'inline' runs jobs on threads "
        "in the server process (tests, smoke runs)",
    )
    serve.add_argument(
        "--no-ingest",
        action="store_true",
        help="skip the startup warehouse sync of the existing cache dir",
    )
    serve.add_argument(
        "--max-interactive",
        type=int,
        default=128,
        metavar="N",
        help="admission limit for in-flight interactive jobs (evaluate); "
        "beyond it submissions get 429 + Retry-After (default 128, "
        "0 = unbounded)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="admission limit for in-flight batch jobs (suite/campaign) "
        "(default 16, 0 = unbounded)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint attached to 429 responses (default 1.0)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline budget applied to submissions that don't set "
        "deadline_s themselves; expired jobs are cancelled, queued "
        "fleet work included (default: none)",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="install a fault-injection plan, e.g. "
        "'http_error_p=0.01,sqlite_busy_p=0.05,seed=7' "
        "(overrides the REPRO_CHAOS environment variable)",
    )

    worker = commands.add_parser(
        "worker",
        help="join a service's fleet: lease jobs, execute them locally, "
        "post results back",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="service base URL (http://host:port) or host:port",
    )
    worker.add_argument(
        "--id",
        default=None,
        help="worker id shown in the service's /stats "
        "(default <hostname>-<pid>)",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="local loop-cache directory; point it at the server's "
        "cache dir on a shared filesystem to reuse warm per-loop "
        "profiles and schedules (results always flow back over HTTP)",
    )
    worker.add_argument(
        "--ttl",
        type=float,
        default=60.0,
        help="lease TTL to request; the worker heartbeats at ttl/3 "
        "(default 60)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=1.0,
        help="idle sleep between empty lease attempts (default 1.0s)",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after leasing this many jobs (default: run until "
        "drained or signalled)",
    )
    worker.add_argument(
        "--stay-on-drain",
        action="store_true",
        help="keep polling while the service drains instead of exiting",
    )
    worker.add_argument(
        "--bench-sleep",
        type=float,
        default=None,
        metavar="SECONDS",
        help="replace job execution with a fixed sleep returning a "
        "synthetic OK payload — benchmarks the fleet protocol itself "
        "(lease/complete/requeue), not the pipeline",
    )
    worker.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="install a fault-injection plan in this worker, e.g. "
        "'worker_crash_p=0.02,complete_delay_p=0.1,complete_delay_s=5' "
        "(overrides the REPRO_CHAOS environment variable)",
    )

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a service with open-loop Poisson load and measure "
        "sustained latency/goodput/rejection against SLOs",
    )
    loadgen.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="service base URL (http://host:port or host:port)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="offered arrival rate in requests/second (default 50)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="generation window in seconds (default 10)",
    )
    loadgen.add_argument(
        "--profile",
        choices=("mixed", "evaluate"),
        default="mixed",
        help="traffic mix: 'mixed' = evaluate/suite/campaign/query "
        "(default), 'evaluate' = submissions only",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="profile scale for submitted experiments (default 0.01)",
    )
    loadgen.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="attach this deadline_s to every submission",
    )
    loadgen.add_argument(
        "--max-in-flight",
        type=int,
        default=2000,
        help="client-side cap on concurrent requests (default 2000)",
    )
    loadgen.add_argument(
        "--drain-timeout",
        type=float,
        default=120.0,
        help="post-window wait for submitted jobs to settle (default 120)",
    )
    loadgen.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON report to this file instead of stdout",
    )
    loadgen.add_argument(
        "--check",
        action="store_true",
        help="gate on SLO thresholds; non-zero exit on violation",
    )
    loadgen.add_argument(
        "--slo-p99-ms",
        type=float,
        default=2000.0,
        help="--check: request latency p99 ceiling (default 2000ms)",
    )
    loadgen.add_argument(
        "--slo-healthz-p99-ms",
        type=float,
        default=100.0,
        help="--check: /healthz latency p99 ceiling (default 100ms)",
    )
    loadgen.add_argument(
        "--slo-reject-max",
        type=float,
        default=None,
        help="--check: max tolerated rejection rate (default: no limit "
        "— shedding under overload is correct behavior)",
    )
    loadgen.add_argument(
        "--slo-error-max",
        type=float,
        default=0.01,
        help="--check: max tolerated error rate (default 0.01)",
    )
    loadgen.add_argument(
        "--slo-goodput-min",
        type=float,
        default=None,
        help="--check: minimum completed jobs/second (default: no limit)",
    )

    query = commands.add_parser(
        "query",
        help="cross-campaign queries over the SQLite results warehouse",
    )
    query.add_argument(
        "op",
        choices=("ingest", *QUERY_OPS),
        help="what to ask (see docs/service.md#queries)",
    )
    query.add_argument(
        "selectors",
        nargs="*",
        metavar="SELECTOR",
        help="for ingest: cache dirs to index; for diff: exactly two "
        "selectors (campaign labels or machine:NAME); for timeline: a "
        "job id or trace id; for jobs/best/pareto/spans/cache: an "
        "optional single selector narrowing the population",
    )
    query.add_argument(
        "--db",
        default=None,
        help="warehouse database (default <cache-dir>/warehouse.sqlite)",
    )
    query.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory the default --db lives in (default "
        ".repro-cache)",
    )
    query.add_argument(
        "--label",
        default=None,
        help="for ingest: file every entry of each ingested store under "
        "this campaign label, in that store",
    )
    query.add_argument(
        "--benchmark",
        default=None,
        help="for jobs and best: narrow to one benchmark",
    )
    query.add_argument(
        "--metric",
        choices=METRICS,
        default="ed2_ratio",
        help="ranking/diff metric (default ed2_ratio)",
    )
    query.add_argument(
        "--output",
        choices=("table", "json"),
        default="table",
        help="result format (default table)",
    )

    table2 = commands.add_parser("table2", help="measured Table 2 shares")
    table2.add_argument("--scale", type=float, default=0.05)

    bench = commands.add_parser(
        "bench",
        help="time the pipeline per stage and write BENCH_pipeline.json",
    )
    bench.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated benchmark names, or 'all' (default)",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=None,
        help="corpus scale (default: REPRO_CORPUS_SCALE or 0.15)",
    )
    bench.add_argument(
        "--output",
        default="BENCH_pipeline.json",
        help="where to write the JSON report (default BENCH_pipeline.json)",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline report; exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed normalized-total regression for --check (default 0.25)",
    )

    trace = commands.add_parser(
        "trace",
        help="run evaluate/suite with tracing on and print the span tree",
    )
    trace.add_argument(
        "cmd",
        choices=("evaluate", "suite"),
        help="what to run under the tracer",
    )
    trace.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        help="benchmark name (required for evaluate, ignored for suite)",
    )
    trace.add_argument("--buses", type=int, default=1, choices=(1, 2))
    trace.add_argument("--scale", type=float, default=0.05)
    trace.add_argument(
        "--output",
        choices=("tree", "json"),
        default="tree",
        help="rendered span tree (default) or the raw tree as JSON",
    )
    add_machine_flags(trace)

    commands.add_parser("list", help="list the available benchmarks")
    return parser


def _machine_file_path(ref: Optional[str]) -> Optional[str]:
    """Resolve a --machine-file value: a path, or a bundled pack name;
    ``paper`` (and no value) is the paper machine, None."""
    if ref is None or ref == "paper":
        return None
    import os

    if not os.path.exists(ref):
        from repro.scenarios import bundled_pack_paths

        bundled = bundled_pack_paths()
        if ref in bundled:
            return str(bundled[ref])
    return str(ref)


def _benchmark(args: argparse.Namespace, name: str):
    """A benchmark name resolved to its spec: a workload of a
    ``--workloads`` pack, else a built-in profile (packs cannot declare
    a built-in name)."""
    from repro.scenarios import find_pack

    for ref in getattr(args, "workloads", ()):
        for spec in find_pack(ref).workloads:
            if spec.name == name:
                return spec
    return spec_profile(name)


def _experiment(args: argparse.Namespace) -> Experiment:
    """The experiment the CLI flags describe."""
    machine_file = _machine_file_path(getattr(args, "machine_file", None))
    return Experiment.paper(
        ExperimentOptions(n_buses=args.buses, machine_file=machine_file)
    )


def _evaluate(spec, experiment: Experiment, scale: float):
    corpus = build_corpus(spec, scale=scale)
    return experiment.run(corpus)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    experiment = _experiment(args)
    evaluation = _evaluate(
        _benchmark(args, args.benchmark), experiment, args.scale
    )
    if args.output == "json":
        print(json.dumps(evaluation.to_dict(), indent=2, sort_keys=True))
        return 0
    selection = evaluation.heterogeneous_selection
    print(
        render_table(
            ["metric", "value"],
            [
                ("ED^2 vs optimum homogeneous", f"{evaluation.ed2_ratio:.3f}"),
                ("energy ratio", f"{evaluation.energy_ratio:.3f}"),
                ("time ratio", f"{evaluation.time_ratio:.3f}"),
                ("fast cycle factor", str(selection.fast_factor)),
                ("slow/fast ratio", str(selection.slow_ratio)),
                (
                    "cluster Vdd",
                    "/".join(f"{s.vdd:.2f}" for s in selection.point.clusters),
                ),
            ],
            title=f"{evaluation.benchmark} ({args.buses} bus(es), "
            f"scale {args.scale})",
        )
    )
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    experiment = _experiment(args)
    evaluations = []
    measured = {}
    for name, spec in SPEC2000_PROFILES.items():
        evaluation = _evaluate(spec, experiment, args.scale)
        evaluations.append(evaluation)
        measured[name] = evaluation.ed2_ratio
        print(f"{name}: {evaluation.ed2_ratio:.3f}", file=sys.stderr)
    if args.output == "json":
        from repro.pipeline import SuiteResult

        suite = SuiteResult(evaluations=evaluations)
        print(json.dumps(suite.to_dict(), indent=2, sort_keys=True))
        return 0
    measured["mean"] = sum(measured.values()) / len(measured)
    print(
        bar_chart(
            measured,
            title=f"Figure 6 ({args.buses} bus(es)): ED^2 vs optimum "
            "homogeneous (paper values in PAPER_FIGURE6_ED2)",
            maximum=1.0,
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        DEFAULT_CACHE_DIR,
        CampaignSpec,
        ResultStore,
        load_results,
        run_campaign,
    )
    from repro.reporting import (
        campaign_best_table,
        campaign_means_table,
        campaign_pareto_table,
        campaign_results_table,
        campaign_summary,
    )

    store = None
    if not args.no_cache:
        store = ResultStore(
            args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
        )

    if args.report_only:
        if store is None:
            print("--report-only needs a cache to report on", file=sys.stderr)
            return 2
        cached = load_results(store)
        if not cached:
            print(f"no cached results under {store.root}", file=sys.stderr)
            return 1
        print(campaign_results_table(cached))
        print(campaign_means_table(cached))
        print(campaign_best_table(cached))
        print(campaign_pareto_table(cached))
        return 0

    if args.benchmarks.strip().lower() == "all":
        benchmarks = tuple(SPEC2000_PROFILES)
    else:
        # Built-in profiles travel by name, pack workloads as specs.
        benchmarks = tuple(
            spec if spec.name not in SPEC2000_PROFILES else spec.name
            for spec in (
                _benchmark(args, name.strip())
                for name in args.benchmarks.split(",")
                if name.strip()
            )
        )
    on_off = lambda knob: (True, False) if knob in args.ablate else (True,)
    spec = CampaignSpec(
        benchmarks=benchmarks,
        scale=args.scale,
        buses_grid=tuple(
            int(b.strip()) for b in str(args.buses).split(",") if b.strip()
        ),
        machine_files=tuple(
            _machine_file_path(ref) for ref in args.machine_file or ["paper"]
        ),
        per_class_energy_grid=on_off("per-class-energy"),
        preplace_grid=on_off("preplace"),
        ed2_refinement_grid=on_off("ed2-refinement"),
        sync_penalties_grid=on_off("sync-penalties"),
    )
    jobs = spec.expand()
    print(
        f"campaign: {len(jobs)} job(s) = {len(benchmarks)} benchmark(s) "
        f"x {spec.n_configurations} configuration(s), --jobs {args.jobs}",
        file=sys.stderr,
    )

    def _progress(result) -> None:
        state = "cached" if result.cached else (
            "ok" if result.ok else "FAILED"
        )
        timing = "" if result.cached else f" ({result.elapsed_s:.1f}s)"
        print(
            f"  [{result.key}] {result.job.describe()}: {state}{timing}",
            file=sys.stderr,
        )

    if store is not None and args.label is not None:
        store.add_label(args.label, (job.key() for job in jobs))
    try:
        outcome = run_campaign(
            jobs,
            store=store,
            n_jobs=args.jobs,
            progress=_progress,
            recompute=args.recompute,
        )
    finally:
        if store is not None:
            from repro.warehouse import Warehouse

            with Warehouse.for_store(store) as warehouse:
                warehouse.ingest_store(store)
    print(campaign_summary(outcome), file=sys.stderr)
    for failure in outcome.failed:
        print(
            f"job {failure.key} ({failure.job.describe()}) failed:\n"
            f"{failure.error}",
            file=sys.stderr,
        )

    if outcome.succeeded:
        print(campaign_results_table(outcome.results))
        print(campaign_means_table(outcome.results))
        print(campaign_best_table(outcome.results))
        print(campaign_pareto_table(outcome.results))
    return 1 if outcome.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.campaign import DEFAULT_CACHE_DIR, ResultStore
    from repro.campaign.executor import execute_job_payload
    from repro.service import AdmissionPolicy, JobManager, ServiceServer
    from repro.warehouse import Warehouse

    _install_chaos(args.chaos)
    admission = AdmissionPolicy(
        max_interactive=args.max_interactive if args.max_interactive else None,
        max_batch=args.max_batch if args.max_batch else None,
        retry_after_s=args.retry_after,
    )
    store = ResultStore(
        args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    )
    warehouse = Warehouse.for_store(store)
    if not args.no_ingest:
        report = warehouse.ingest_store(store)
        print(report.describe(), file=sys.stderr)

    async def _serve() -> None:
        manager = JobManager(
            store=store,
            warehouse=warehouse,
            run_payload=(
                execute_job_payload if args.runner == "inline" else None
            ),
            max_workers=args.jobs,
            lease_ttl=args.lease_ttl,
            fleet_retries=args.fleet_retries,
            admission=admission,
            default_deadline=args.default_deadline,
        )
        server = ServiceServer(manager, host=args.host, port=args.port)
        host, port = await server.start()
        pool = (
            f"runner {args.runner} x{args.jobs}"
            if args.jobs > 0
            else "fleet workers only"
        )
        print(
            f"repro service listening on http://{host}:{port} "
            f"(store {store.root}, warehouse {warehouse.path}, {pool}, "
            f"lease ttl {args.lease_ttl:g}s)",
            file=sys.stderr,
            flush=True,
        )
        # Graceful drain: the first SIGINT/SIGTERM stops granting fleet
        # leases and gives in-flight ones a grace window to complete;
        # a second signal exits immediately.
        import signal as _signal

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            if not manager.fleet.draining:
                print(
                    "repro service draining (signal again to force exit)",
                    file=sys.stderr,
                    flush=True,
                )
                manager.drain()
            stop.set()

        try:
            for signum in (_signal.SIGINT, _signal.SIGTERM):
                loop.add_signal_handler(signum, _on_signal)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without loop signal handlers
        try:
            await stop.wait()
            deadline = loop.time() + args.drain_grace
            while loop.time() < deadline:
                if manager.fleet.queue.stats()["leased"] == 0:
                    break
                await asyncio.sleep(0.2)
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        print("repro service stopped", file=sys.stderr)
        warehouse.close()
    return 0


def _install_chaos(spec: Optional[str]) -> None:
    """Install a CLI-supplied chaos plan (outranks ``REPRO_CHAOS``)."""
    if spec is None:
        return
    from repro import chaos

    plan = chaos.parse_plan(spec)
    chaos.install(plan)
    print(
        f"chaos plan installed: {plan.to_spec() or '(inert)'}",
        file=sys.stderr,
        flush=True,
    )


def _parse_connect(url: str):
    """(host, port) from ``http://host:port``, ``host:port`` or ``:port``."""
    import urllib.parse

    if "//" not in url:
        url = "//" + url
    parsed = urllib.parse.urlsplit(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port
    if port is None:
        raise SystemExit(f"--connect needs an explicit port, got {url!r}")
    return host, port


def _cmd_worker(args: argparse.Namespace) -> int:
    import json
    import signal

    from repro.fleet import FleetWorker, sleep_runner
    from repro.service import ServiceClient

    _install_chaos(args.chaos)
    host, port = _parse_connect(args.connect)
    client = ServiceClient(host=host, port=port)

    worker = FleetWorker(
        client,
        worker_id=args.id,
        cache_dir=args.cache_dir,
        ttl=args.ttl,
        poll=args.poll,
        execute=(
            None if args.bench_sleep is None else sleep_runner(args.bench_sleep)
        ),
        exit_on_drain=not args.stay_on_drain,
        max_jobs=args.max_jobs,
    )

    # First signal: finish the lease in hand, then exit.  Second signal:
    # release the lease back to the queue and exit right away.
    def _on_signal(signum, frame) -> None:
        if worker._stop.is_set():
            worker.request_abort()
        else:
            print(
                f"{worker.worker_id}: finishing current lease "
                "(signal again to release and exit)",
                file=sys.stderr,
                flush=True,
            )
            worker.request_stop()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _on_signal)

    print(
        f"{worker.worker_id}: joining fleet at http://{host}:{port}",
        file=sys.stderr,
        flush=True,
    )
    stats = worker.run()
    print(json.dumps(stats.describe(), sort_keys=True), flush=True)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.loadgen import check_slos, run_load

    host, port = _parse_connect(args.connect)
    report = asyncio.run(
        run_load(
            host,
            port,
            rate=args.rate,
            duration=args.duration,
            profile=args.profile,
            seed=args.seed,
            scale=args.scale,
            deadline_s=args.deadline_s,
            max_in_flight=args.max_in_flight,
            drain_timeout=args.drain_timeout,
        )
    )

    document = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        Path(args.output).write_text(document + "\n")
        print(
            f"loadgen: report written to {args.output}",
            file=sys.stderr,
            flush=True,
        )
    else:
        print(document)

    summary = (
        f"loadgen: {report['counts']['arrivals']} arrivals @ "
        f"{args.rate:g}rps, p99 {report['latency']['p99_ms']:.1f}ms, "
        f"healthz p99 {report['healthz']['p99_ms']:.1f}ms, "
        f"goodput {report['goodput_jobs_per_s']:.2f} jobs/s, "
        f"rejected {report['rejection_rate']:.1%}"
    )
    print(summary, file=sys.stderr, flush=True)

    if args.check:
        failures = check_slos(
            report,
            p99_ms=args.slo_p99_ms,
            healthz_p99_ms=args.slo_healthz_p99_ms,
            reject_max=args.slo_reject_max,
            error_max=args.slo_error_max,
            goodput_min=args.slo_goodput_min,
        )
        if failures:
            for failure in failures:
                print(f"SLO FAIL: {failure}", file=sys.stderr)
            return 1
        print("loadgen: all SLOs met", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.campaign import DEFAULT_CACHE_DIR, ResultStore
    from repro.reporting import render_query
    from repro.warehouse import (
        DEFAULT_WAREHOUSE_NAME,
        Warehouse,
        WarehouseError,
        run_query,
    )

    cache_dir = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    db_path = (
        args.db
        if args.db is not None
        else f"{cache_dir}/{DEFAULT_WAREHOUSE_NAME}"
    )
    with Warehouse(db_path) as warehouse:
        if args.op == "ingest":
            for source in args.selectors or [cache_dir]:
                store = ResultStore(source)
                if args.label is not None:
                    store.add_label(args.label, store.keys())
                report = warehouse.ingest_store(store)
                print(report.describe(), file=sys.stderr)
            print(render_query("summary", run_query(warehouse, "summary")))
            return 0
        try:
            document = run_query(
                warehouse,
                args.op,
                args.selectors,
                benchmark=args.benchmark,
                metric=args.metric,
            )
        except (ValueError, WarehouseError) as error:
            print(f"query failed: {error}", file=sys.stderr)
            return 2
    if args.output == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_query(args.op, document, args.selectors, args.metric))
    return 1 if args.op == "diff" and document["regressed"] else 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.machine import paper_machine
    from repro.pipeline.profiling import profile_corpus
    from repro.power import TechnologyModel
    from repro.scheduler import HomogeneousModuloScheduler

    rows = []
    for name in SPEC2000_PROFILES:
        corpus = build_corpus(spec_profile(name), scale=args.scale)
        profile, _ = profile_corpus(
            corpus, HomogeneousModuloScheduler(paper_machine(), TechnologyModel())
        )
        shares = profile.time_share_by_constraint_class()
        rows.append(
            (
                name,
                f"{shares['resource']:.1%}",
                f"{shares['balanced']:.1%}",
                f"{shares['recurrence']:.1%}",
            )
        )
    print(
        render_table(
            ["benchmark", "resource", "balanced", "recurrence"],
            rows,
            title="Table 2 (measured)",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        check_regression,
        render_report,
        run_pipeline_bench,
        write_report,
    )

    if args.benchmarks.strip().lower() == "all":
        benchmarks = None
    else:
        benchmarks = [
            spec_profile(name.strip()).name
            for name in args.benchmarks.split(",")
            if name.strip()
        ]
    report = run_pipeline_bench(benchmarks=benchmarks, scale=args.scale)
    path = write_report(report, args.output)
    print(render_report(report), file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    if args.check is not None:
        baseline = json.loads(open(args.check).read())
        failures = check_regression(report, baseline, tolerance=args.tolerance)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"perf gate passed: normalized {report['normalized_total']:.1f} "
            f"vs baseline {baseline['normalized_total']:.1f} "
            f"(tolerance {args.tolerance:.0%})",
            file=sys.stderr,
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.errors import ScenarioError
    from repro.reporting import scenario_detail, scenario_list_table
    from repro.scenarios import bundled_pack_paths, find_pack, pack_to_toml

    refs = args.packs or sorted(bundled_pack_paths())
    packs = []
    failures = 0
    for ref in refs:
        try:
            pack = find_pack(ref)
        except ScenarioError as error:
            failures += 1
            print(f"FAIL {ref}: {error}", file=sys.stderr)
            continue
        packs.append(pack)
        if args.validate:
            print(f"ok   {ref}: scenario {pack.name!r} ({pack.describe()})")
    if args.validate:
        if failures:
            print(f"{failures} of {len(refs)} pack(s) failed", file=sys.stderr)
        return 1 if failures else 0
    if failures:
        return 1
    if args.export:
        # One pack per document: concatenated [scenario] tables would
        # not parse as TOML.
        if len(packs) != 1:
            print(
                "scenarios --export takes exactly one pack "
                f"(got {len(packs)}); name it, e.g. "
                "`scenarios --export paper-1bus`",
                file=sys.stderr,
            )
            return 2
        print(pack_to_toml(packs[0]), end="")
        return 0
    if args.describe:
        print("\n\n".join(scenario_detail(pack) for pack in packs))
        return 0
    print(scenario_list_table(packs))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.reporting import render_trace
    from repro.telemetry import enable_tracing, span

    if args.cmd == "evaluate" and args.benchmark is None:
        print("trace evaluate needs a benchmark", file=sys.stderr)
        return 2
    experiment = _experiment(args)
    enable_tracing()
    with span(args.cmd, buses=args.buses, scale=args.scale) as root:
        if args.cmd == "evaluate":
            evaluation = _evaluate(
                _benchmark(args, args.benchmark), experiment, args.scale
            )
            print(
                f"{evaluation.benchmark}: {evaluation.ed2_ratio:.3f}",
                file=sys.stderr,
            )
        else:
            for name, spec in SPEC2000_PROFILES.items():
                evaluation = _evaluate(spec, experiment, args.scale)
                print(
                    f"{name}: {evaluation.ed2_ratio:.3f}", file=sys.stderr
                )
    if args.output == "json":
        print(json.dumps(root.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_trace(root))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name, spec in SPEC2000_PROFILES.items():
        print(
            f"{name}: {spec.recurrence_share:.0%} recurrence-bound, "
            f"{spec.recurrence_width.value} recurrences, "
            f"trips {spec.trip_counts[0]:g}-{spec.trip_counts[1]:g}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "trace" and args.cmd == "suite" and args.workloads:
        parser.error(
            "trace suite runs only the built-in profiles; --workloads "
            "applies to trace evaluate"
        )
    from repro.telemetry import configure_logging

    configure_logging(verbosity=args.verbose - args.quiet)
    handlers = {
        "evaluate": _cmd_evaluate,
        "suite": _cmd_suite,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "loadgen": _cmd_loadgen,
        "query": _cmd_query,
        "table2": _cmd_table2,
        "bench": _cmd_bench,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the telemetry layer (repro.telemetry)."""

import io
import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsError,
    MetricsRegistry,
    Span,
    attribution,
    disable_tracing,
    enable_tracing,
    env_tracing_requested,
    get_logger,
    level_for,
    merge_summaries,
    render_prometheus,
    span,
    span_count,
    summarize_trace,
    tracing_enabled,
)
from repro.telemetry.logs import JsonFormatter, TextFormatter


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_null_and_binds_none(self):
        assert not tracing_enabled()
        first = span("anything")
        second = span("else")
        assert first is second  # no per-call allocation when off
        with first as sp:
            assert sp is None
        span_count("probes", 10)  # must be a silent no-op

    def test_nesting_builds_a_tree_with_timings(self):
        enable_tracing()
        with span("root", kind="test") as root:
            with span("child") as child:
                child.count("widgets", 3)
                with span("grandchild"):
                    pass
            with span("child"):
                pass
        assert root.name == "root"
        assert root.attributes == {"kind": "test"}
        assert [c.name for c in root.children] == ["child", "child"]
        assert root.children[0].counters == {"widgets": 3}
        assert [g.name for g in root.children[0].children] == ["grandchild"]
        assert root.elapsed_s >= root.child_total_s > 0.0
        assert len(list(root.walk())) == 4

    def test_span_count_lands_on_the_innermost_open_span(self):
        enable_tracing()
        with span("outer") as outer:
            with span("inner") as inner:
                span_count("probes", 7)
                span_count("probes", 2)
        assert inner.counters == {"probes": 9}
        assert outer.counters == {}

    def test_serialization_round_trips(self):
        enable_tracing()
        with span("job", benchmark="171.swim") as root:
            with span("stage") as stage:
                stage.count("hits", 2)
        data = root.to_dict()
        json.dumps(data)  # must be JSON-safe as promised
        rebuilt = Span.from_dict(data)
        assert rebuilt.name == "job"
        assert rebuilt.attributes == {"benchmark": "171.swim"}
        assert rebuilt.elapsed_s == root.elapsed_s
        (child,) = rebuilt.children
        assert child.counters == {"hits": 2}

    def test_summarize_and_merge(self):
        tree = {
            "name": "job",
            "elapsed_s": 2.0,
            "children": [
                {"name": "profile", "elapsed_s": 0.5},
                {"name": "profile", "elapsed_s": 0.25},
                {"name": "schedule", "elapsed_s": 1.0},
            ],
        }
        summary = summarize_trace(tree)
        assert summary["profile"] == {"n": 2, "total_s": 0.75}
        assert summary["schedule"] == {"n": 1, "total_s": 1.0}
        merged = merge_summaries(iter([summary, summary]))
        assert merged["profile"] == {"n": 4, "total_s": 1.5}

    def test_attribution_caps_at_one(self):
        root = Span("root")
        root.elapsed_s = 1.0
        child = Span("child")
        child.elapsed_s = 1.5  # clock skew must not report >100%
        root.children.append(child)
        assert attribution(root) == 1.0
        empty = Span("empty")
        assert attribution(empty) == 1.0

    def test_env_request_parsing(self):
        assert not env_tracing_requested({})
        assert not env_tracing_requested({"REPRO_TRACE": "0"})
        assert not env_tracing_requested({"REPRO_TRACE": "false"})
        assert env_tracing_requested({"REPRO_TRACE": "1"})
        assert env_tracing_requested({"REPRO_TRACE": "yes"})


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_by_labels(self):
        registry = MetricsRegistry()
        events = registry.counter("events_total", "test counter")
        events.inc(stage="profile")
        events.inc(2, stage="profile")
        events.inc(stage="schedule")
        assert events.value(stage="profile") == 3
        assert events.value(stage="schedule") == 1
        assert events.value(stage="never") == 0

    def test_gauge_up_down(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        depth.inc()
        depth.inc()
        depth.dec()
        assert depth.value() == 1
        depth.set(10)
        assert depth.value() == 10

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(MetricsError):
            registry.gauge("thing")

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_histogram_percentiles_bracket_the_samples(self):
        data = HistogramData()
        for value in (0.001, 0.002, 0.004, 0.010, 0.100):
            data.observe(value)
        assert data.count == 5
        assert data.mean == pytest.approx(0.0234)
        p50 = data.percentile(0.50)
        assert 0.001 <= p50 <= 0.008
        assert data.percentile(1.0) >= data.percentile(0.5)
        with pytest.raises(MetricsError):
            data.percentile(0.0)

    def test_histogram_family_labels(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("request_seconds")
        seconds.observe(0.01, endpoint="/healthz")
        seconds.observe(0.02, endpoint="/healthz")
        assert seconds.data(endpoint="/healthz").count == 2
        assert seconds.data(endpoint="/nope").count == 0

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        a=st.lists(
            st.floats(min_value=1e-7, max_value=100.0), max_size=50
        ),
        b=st.lists(
            st.floats(min_value=1e-7, max_value=100.0), max_size=50
        ),
    )
    def test_merged_histograms_equal_histogram_of_merged_samples(self, a, b):
        # The fixed-bucket design's core invariant: aggregation across
        # processes/threads loses nothing relative to central recording.
        ha, hb, hall = HistogramData(), HistogramData(), HistogramData()
        for value in a:
            ha.observe(value)
            hall.observe(value)
        for value in b:
            hb.observe(value)
            hall.observe(value)
        merged = ha.merge(hb)
        assert merged.counts == hall.counts
        assert merged.count == hall.count
        assert merged.sum == pytest.approx(hall.sum)

    def test_merge_rejects_different_layouts(self):
        with pytest.raises(MetricsError):
            HistogramData((1.0, 2.0)).merge(HistogramData((1.0, 4.0)))


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "help text").inc(
            3, stage="profile"
        )
        registry.gauge("repro_depth").set(2)
        text = render_prometheus(registry)
        assert "# HELP repro_test_total help text" in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{stage="profile"} 3' in text
        assert "repro_depth 2" in text

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total").inc(reason='say "hi"\nthere')
        text = render_prometheus(registry)
        assert 'reason="say \\"hi\\"\\nthere"' in text

    def test_process_registry_renders(self):
        # The global registry accumulates across the suite; rendering it
        # must always produce parseable non-empty text.
        text = render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or " " in line


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_level_map(self):
        assert level_for(-2) == logging.CRITICAL
        assert level_for(-1) == logging.ERROR
        assert level_for(0) == logging.WARNING
        assert level_for(1) == logging.INFO
        assert level_for(2) == logging.DEBUG

    def test_get_logger_namespacing(self):
        assert get_logger("campaign").name == "repro.campaign"
        assert get_logger("repro.service").name == "repro.service"

    def test_json_formatter_includes_extras(self):
        record = logging.LogRecord(
            "repro.test", logging.WARNING, __file__, 1, "boom", (), None
        )
        record.job = "abc123"
        data = json.loads(JsonFormatter().format(record))
        assert data["level"] == "WARNING"
        assert data["logger"] == "repro.test"
        assert data["msg"] == "boom"
        assert data["job"] == "abc123"

    def test_text_formatter_is_one_line(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello", (), None
        )
        line = TextFormatter().format(record)
        assert "repro.test" in line and "hello" in line
        assert "\n" not in line

    def test_configure_logging_writes_to_stream(self):
        from repro.telemetry import configure_logging

        stream = io.StringIO()
        configure_logging(verbosity=1, mode="text", stream=stream)
        try:
            get_logger("configtest").info(
                "something happened", extra={"n": 3}
            )
            assert "something happened" in stream.getvalue()
        finally:
            # Restore the default so later tests aren't redirected.
            configure_logging(verbosity=0, mode="text")


# ----------------------------------------------------------------------
# instrumented subsystems
# ----------------------------------------------------------------------
class TestPipelineIntegration:
    def test_traced_evaluate_attributes_wall_time_to_stages(self):
        from repro.pipeline import Experiment, ExperimentOptions
        from repro.pipeline.cache import clear_loop_cache
        from repro.workloads import build_corpus, spec_profile

        # The assertions below require a cold pipeline: a warm loop cache
        # would skip the scheduling work whose spans and counters this
        # test attributes.
        clear_loop_cache()
        enable_tracing()
        corpus = build_corpus(spec_profile("171.swim"), scale=0.02)
        with span("evaluate") as root:
            Experiment.paper(ExperimentOptions(simulate=False)).run(corpus)
        names = {child.name for child in root.children}
        assert {"profile", "calibrate", "baseline", "select", "schedule"} \
            <= names
        assert attribution(root) >= 0.95
        loops = [s for s in root.walk() if s.name == "schedule_loop"]
        assert loops and all(
            s.counters.get("mrt_probes", 0) > 0 for s in loops
        )

    def test_trace_crosses_pool_workers(self, tmp_path):
        # spawn-platform workers inherit neither module globals nor the
        # driver's span stack; the initializer flag must carry the
        # switch over, and the payload must carry the tree back.
        from repro.campaign import ExperimentJob, ResultStore, run_campaign
        from repro.pipeline import ExperimentOptions

        enable_tracing()
        jobs = [
            ExperimentJob(
                benchmark=name,
                scale=0.02,
                options=ExperimentOptions(simulate=False),
            )
            for name in ("171.swim", "172.mgrid")
        ]
        outcome = run_campaign(
            jobs, store=ResultStore(tmp_path / "cache"), n_jobs=2
        )
        assert len(outcome.succeeded) == 2
        for result in outcome:
            assert result.trace is not None
            assert result.trace["name"] == "job"
            summary = summarize_trace(result.trace)
            assert summary["profile"]["n"] == 2
            assert summary["schedule"]["total_s"] > 0.0

    def test_untraced_jobs_carry_no_trace(self, tmp_path):
        from repro.campaign import ExperimentJob, ResultStore, run_campaign
        from repro.pipeline import ExperimentOptions

        assert not tracing_enabled()
        outcome = run_campaign(
            [
                ExperimentJob(
                    benchmark="171.swim",
                    scale=0.02,
                    options=ExperimentOptions(simulate=False),
                )
            ],
            store=ResultStore(tmp_path / "cache"),
        )
        (result,) = outcome.results
        assert result.ok and result.trace is None


class TestRenderTrace:
    def test_merged_tree_rendering(self):
        from repro.reporting import render_trace

        root = Span("evaluate")
        root.elapsed_s = 2.0
        for elapsed in (0.6, 0.4):
            child = Span("profile")
            child.elapsed_s = elapsed
            child.count("loops", 8)
            root.children.append(child)
        tail = Span("measure")
        tail.elapsed_s = 1.0
        root.children.append(tail)
        text = render_trace(root)
        assert "profile x2" in text
        assert "loops=16" in text
        assert "measure" in text
        assert "100.0% of 2.000s" in text

    def test_exports(self):
        from repro.reporting import warehouse_spans_table
        from repro.warehouse import SpanRow

        table = warehouse_spans_table(
            [SpanRow(span="profile", n=4, total_s=1.25, jobs=2)],
            selector="nightly",
        )
        assert "profile" in table and "nightly" in table

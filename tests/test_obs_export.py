"""Tests for the Prometheus/JSON exposition and the snapshot endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    ObsServer,
    metric_name,
    snapshot,
    to_json,
    to_prometheus,
)


class TestMetricName:
    def test_dots_become_underscores_with_prefix(self):
        assert (
            metric_name("span.engine.correlate.wall_seconds")
            == "repro_span_engine_correlate_wall_seconds"
        )

    def test_custom_and_empty_prefix(self):
        assert metric_name("kcd.profile_calls", prefix="db") == "db_kcd_profile_calls"
        assert metric_name("plain", prefix="") == "plain"

    def test_leading_digit_is_guarded(self):
        assert metric_name("9lives", prefix="")[0] == "_"

    def test_result_matches_prometheus_grammar(self):
        import re

        for raw in ("a b", "per-unit/depth", "α.β", "x:y"):
            assert re.fullmatch(
                r"[a-zA-Z_:][a-zA-Z0-9_:]*", metric_name(raw)
            ), raw


class TestToPrometheus:
    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.counter("calls").increment(3)
        registry.gauge("depth").set(4.0)
        registry.histogram("latency", bounds=(1.0, 2.0)).observe(1.5)
        text = to_prometheus(registry)
        assert "# TYPE repro_calls counter\nrepro_calls 3" in text
        assert "# TYPE repro_depth gauge\nrepro_depth 4.0" in text
        assert "repro_depth_max 4.0" in text
        assert "# TYPE repro_latency histogram" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        text = to_prometheus(registry)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 2' in text
        assert 'repro_h_bucket{le="4"} 3' in text
        assert 'repro_h_bucket{le="+Inf"} 4' in text
        assert "repro_h_count 4" in text
        assert "repro_h_sum 105.0" in text

    def test_every_line_is_sample_or_type_comment(self):
        registry = MetricsRegistry()
        registry.counter("kcd.profile_calls").increment()
        registry.histogram("span.kcd.profile.wall_seconds").observe(0.01)
        for line in to_prometheus(registry).strip().splitlines():
            assert line.startswith("# TYPE ") or " " in line

    def test_empty_and_null_registries_render_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert to_prometheus(NullRegistry()) == ""


class TestJsonExposition:
    def test_to_json_round_trips_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(7)
        registry.gauge("g").set(2.5)
        decoded = json.loads(to_json(registry))
        assert decoded == snapshot(registry)
        assert decoded["c"] == 7
        assert decoded["g"]["max"] == 2.5


class TestObsServer:
    def test_serves_prometheus_json_and_health(self):
        registry = MetricsRegistry()
        registry.counter("served").increment(11)
        with ObsServer(registry) as server:
            text = urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ).read().decode()
            assert "repro_served 11" in text
            decoded = json.loads(
                urllib.request.urlopen(
                    f"{server.url}/metrics.json", timeout=5
                ).read().decode()
            )
            assert decoded["served"] == 11
            health = urllib.request.urlopen(
                f"{server.url}/healthz", timeout=5
            ).read().decode()
            assert health.strip() == "ok"

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        with ObsServer(registry) as server:
            registry.counter("ticks").increment()
            first = urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ).read().decode()
            registry.counter("ticks").increment(9)
            second = urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ).read().decode()
        assert "repro_ticks 1" in first
        assert "repro_ticks 10" in second

    def test_unknown_path_is_404(self):
        with ObsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            assert excinfo.value.code == 404

    def test_close_is_idempotent(self):
        server = ObsServer(MetricsRegistry())
        server.close()
        server.close()

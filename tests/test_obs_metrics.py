"""Unit tests for the repro.obs instrument set."""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        assert counter.snapshot() == 5


class TestGauge:
    def test_tracks_value_and_high_watermark(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(9.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max == 9.0
        assert gauge.snapshot() == {"value": 2.0, "max": 9.0}


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(105.0)
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0
        # Per-interval storage: bucket i holds (bounds[i-1], bounds[i]].
        assert snap["buckets"] == {"le_1": 1, "le_2": 1, "le_4": 1, "overflow": 1}

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_mean(self):
        histogram = Histogram("h", bounds=(1.0,))
        assert histogram.mean == 0.0
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.mean == pytest.approx(3.0)

    def test_timer_records_elapsed_time(self):
        histogram = Histogram("h", bounds=DEFAULT_LATENCY_BUCKETS)
        with histogram.time():
            pass
        assert histogram.count == 1
        assert 0.0 <= histogram.sum < 1.0

    def test_percentile_interpolates_within_buckets(self):
        histogram = Histogram("h", bounds=(10.0, 20.0, 30.0))
        for value in (1.0, 12.0, 14.0, 16.0, 18.0, 25.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == pytest.approx(1.0)
        assert histogram.percentile(100.0) == pytest.approx(25.0)
        # The median rank lands inside the (10, 20] bucket.
        assert 10.0 <= histogram.percentile(50.0) <= 20.0

    def test_percentile_clamps_to_observed_range(self):
        histogram = Histogram("h", bounds=(10.0,))
        histogram.observe(3.0)
        histogram.observe(4.0)
        assert histogram.percentile(99.0) <= 4.0
        assert histogram.percentile(1.0) >= 3.0

    def test_percentile_overflow_bucket_bounded_by_observed_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(50.0)
        histogram.observe(70.0)
        assert histogram.percentile(95.0) <= 70.0

    def test_merge_folds_another_histograms_snapshot(self):
        # How a pool worker's span histograms join the parent's registry.
        parent = Histogram("h", bounds=(0.1, 1.0))
        worker = Histogram("h", bounds=(0.1, 1.0))
        parent.observe(0.5)
        for value in (0.05, 2.0):
            worker.observe(value)
        parent.merge(worker.snapshot())
        parent.merge(Histogram("h", bounds=(0.1, 1.0)).snapshot())
        merged = parent.snapshot()
        assert merged["count"] == 3 and merged["sum"] == pytest.approx(2.55)
        assert (merged["min"], merged["max"]) == (0.05, 2.0)
        assert list(merged["buckets"].values()) == [1, 1, 1]
        with pytest.raises(ValueError):
            parent.merge(Histogram("h", bounds=(1.0,)).snapshot())

    def test_percentile_empty_histogram(self):
        assert Histogram("h", bounds=(1.0,)).percentile(50.0) == 0.0

    def test_percentile_validates_quantile(self):
        histogram = Histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError):
            histogram.percentile(101.0)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)


class TestMetricsRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_collision_across_kinds_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"]["value"] == 1.0
        assert snap["h"]["count"] == 1
        assert set(registry.instruments()) == {"c", "g", "h"}
        assert registry.enabled


class TestNullRegistry:
    def test_everything_is_a_shared_noop(self):
        registry = NullRegistry()
        assert not registry.enabled
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_noop_instruments_accept_the_full_protocol(self):
        registry = NullRegistry()
        registry.counter("c").increment(10)
        registry.gauge("g").set(5.0)
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        with histogram.time():
            pass
        histogram.merge(Histogram("h").snapshot())
        assert histogram.percentile(0.5) == 0.0
        assert registry.snapshot() == {}
        assert list(registry) == []

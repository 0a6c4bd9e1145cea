"""Unit contract of the metrics registry (counters and histograms)."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    metrics_snapshot,
    reset_metrics,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.add()
        c.add(41)
        assert c.value == 42

    def test_add_coerces_to_int(self):
        c = Counter("x")
        c.add(3.0)
        assert c.value == 3 and isinstance(c.value, int)


class TestHistogram:
    def test_observe_summary(self):
        h = Histogram("x")
        for v in (4, 1, 7):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 1.0 and h.max == 7.0
        assert h.mean == 4.0

    def test_observe_many_matches_loop(self):
        bulk, loop = Histogram("bulk"), Histogram("loop")
        values = [5, 2, 9, 2]
        bulk.observe_many(values)
        for v in values:
            loop.observe(v)
        assert bulk._snapshot() == loop._snapshot()

    def test_observe_many_empty_is_noop(self):
        h = Histogram("x")
        h.observe_many([])
        assert h.count == 0

    def test_empty_snapshot_is_json_safe(self):
        snap = Histogram("x")._snapshot()
        assert snap == {"count": 0, "total": 0.0, "min": None, "max": None,
                        "mean": None}

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("x").mean)


class TestRegistry:
    def test_handles_are_memoised(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("a")

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.count").add(2)
        reg.histogram("a.hist").observe(1.5)
        reg.histogram("c.hist").observe(3)
        snap = reg.snapshot()
        assert list(snap) == ["a.hist", "b.count", "c.hist"]
        assert snap["b.count"] == 2
        assert snap["a.hist"]["max"] == 1.5
        assert snap["c.hist"]["count"] == 1

    def test_reset_zeroes_in_place(self):
        """Reset must keep existing handles valid — modules memoise them."""
        reg = MetricsRegistry()
        handle = reg.counter("a")
        handle.add(5)
        reg.reset()
        assert handle.value == 0
        handle.add(1)
        assert reg.get("a") == 1

    def test_get_default_for_unregistered(self):
        reg = MetricsRegistry()
        assert reg.get("nope") == 0
        assert reg.get("nope", default=None) is None


def test_module_level_helpers_hit_the_global_registry():
    REGISTRY.counter("test.helper").add(7)
    assert metrics_snapshot()["test.helper"] == 7
    reset_metrics()
    assert metrics_snapshot()["test.helper"] == 0


class TestPercentileHistogram:
    def test_bucketed_percentiles(self):
        h = Histogram("lat", buckets=[1.0, 2.0, 4.0, 8.0])
        for v in (0.5, 1.5, 1.5, 3.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0):
            h.observe(v)
        # 10 observations: p50 rank 5 lands in the (4, 8] bucket's
        # cumulative range only at p>=0.5? cumulative: 1, 3, 4, 10.
        assert h.percentile(0.10) == 1.0
        assert h.percentile(0.30) == 2.0
        assert h.percentile(0.40) == 4.0
        assert h.percentile(0.99) == 7.0  # capped at observed max
        assert h.percentile(1.00) == 7.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("lat", buckets=[1.0])
        h.observe(5.0)
        h.observe(9.0)
        assert h.percentile(0.99) == 9.0

    def test_empty_or_bucket_free_percentile_is_nan(self):
        assert math.isnan(Histogram("x", buckets=[1.0]).percentile(0.5))
        assert math.isnan(Histogram("x").percentile(0.5))

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError, match="q must be"):
            Histogram("x", buckets=[1.0]).percentile(1.5)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("x", buckets=[2.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            Histogram("x", buckets=[])

    def test_snapshot_includes_percentiles_only_when_bucketed(self):
        h = Histogram("lat", buckets=[1.0, 10.0])
        h.observe(0.5)
        snap = h._snapshot()
        assert snap["p50"] == 0.5 and snap["p99"] == 0.5  # clamped to max
        plain = Histogram("plain")
        plain.observe(0.5)
        assert "p50" not in plain._snapshot()

    def test_observe_many_fills_buckets(self):
        bulk, loop = (
            Histogram("bulk", buckets=[1.0, 2.0]),
            Histogram("loop", buckets=[1.0, 2.0]),
        )
        values = [0.5, 1.5, 9.0]
        bulk.observe_many(values)
        for v in values:
            loop.observe(v)
        assert bulk.bucket_counts == loop.bucket_counts
        assert bulk._snapshot() == loop._snapshot()

    def test_reset_clears_buckets(self):
        h = Histogram("lat", buckets=[1.0])
        h.observe(0.5)
        h._reset()
        assert h.bucket_counts == [0, 0]
        assert math.isnan(h.percentile(0.5))

    def test_registry_memoises_and_rejects_conflicting_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=[1.0, 2.0])
        assert reg.histogram("lat") is h
        assert reg.histogram("lat", buckets=[1.0, 2.0]) is h
        with pytest.raises(ValueError, match="already registered with buckets"):
            reg.histogram("lat", buckets=[3.0])
        plain = reg.histogram("plain")
        with pytest.raises(ValueError, match="already registered with buckets"):
            reg.histogram("plain", buckets=[1.0])
        assert plain.bucket_bounds is None


class TestExponentialBuckets:
    def test_geometric_spacing(self):
        from repro.obs.metrics import exponential_buckets

        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)

    def test_invalid_rejected(self):
        from repro.obs.metrics import exponential_buckets

        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)


class TestThreadSafety:
    """Concurrent mutation must not drop increments (serve handlers)."""

    def test_concurrent_counter_adds_are_not_lost(self):
        import threading

        c = Counter("x")
        n, per = 4, 25_000

        def work():
            for _ in range(per):
                c.add(1)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n * per

    def test_concurrent_histogram_observes_are_not_lost(self):
        import threading

        h = Histogram("x", buckets=[0.5, 1.5])
        n, per = 4, 10_000

        def work():
            for _ in range(per):
                h.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == n * per
        assert h.bucket_counts == [0, n * per, 0]

    def test_concurrent_registration_yields_one_handle(self):
        import threading

        reg = MetricsRegistry()
        handles = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            handles.append(reg.counter("shared"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(h is handles[0] for h in handles)

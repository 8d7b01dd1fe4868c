"""Tests for the metrics registry: counters, the only metric kind."""

import pytest

from repro.obs import (
    Counter,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    validate_record,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_record(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.to_record() == {
            "kind": "counter", "name": "c", "value": 2
        }

    def test_float_amounts_accumulate(self):
        # a timer is a counter of seconds
        counter = Counter("seconds")
        counter.inc(0.25)
        counter.inc(0.5)
        counter.inc(1)
        assert counter.value == 1.75
        assert counter.to_record()["value"] == 1.75

    def test_rejected_increment_leaves_the_value(self):
        counter = Counter("c")
        counter.inc(3)
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-0.5)
        assert counter.value == 3

    def test_zero_increment_is_allowed(self):
        counter = Counter("c")
        counter.inc(0)
        counter.inc(0.0)
        assert counter.value == 0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("b") is registry.counter("b")
        assert len(registry) == 2

    def test_get_without_create(self):
        registry = MetricsRegistry()
        assert registry.get("missing") is None
        registry.counter("c")
        assert registry.get("c").value == 0

    def test_records_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        registry.counter("mm")
        names = [record["name"] for record in registry.to_records()]
        assert names == ["aa", "mm", "zz"]

    def test_records_are_schema_valid_counters(self):
        # what a tracer's flush writes: each record plus pid and time
        registry = MetricsRegistry()
        registry.counter("runs").inc(4)
        registry.counter("seconds").inc(0.125)
        registry.counter("untouched")
        for record in registry.to_records():
            assert record["kind"] == "counter"
            assert validate_record(
                {"type": "metric", "pid": 1, "time": 0.0, **record}
            ) == []

    def test_records_are_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        (record,) = registry.to_records()
        registry.counter("c").inc(5)
        assert record["value"] == 2
        assert registry.to_records()[0]["value"] == 7


class TestNullRegistry:
    def test_every_lookup_is_the_null_metric(self):
        assert NULL_REGISTRY.counter("a") is NULL_METRIC
        assert NULL_REGISTRY.counter("b") is NULL_METRIC
        assert NULL_REGISTRY.get("a") is None
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.to_records() == []

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.inc()
        NULL_METRIC.inc(10)
        NULL_METRIC.inc(0.5)
        assert NULL_METRIC.value == 0


class TestThreadSafety:
    """Concurrent increments must never be lost."""

    THREADS = 8
    OPS = 2_000

    def _hammer(self, work):
        import threading

        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_are_exact(self):
        counter = Counter("c")
        self._hammer(lambda t: [counter.inc() for _ in range(self.OPS)])
        assert counter.value == self.THREADS * self.OPS

    def test_float_counter_increments_are_exact(self):
        counter = Counter("c")
        self._hammer(
            lambda t: [counter.inc(0.5) for _ in range(self.OPS)]
        )
        assert counter.value == pytest.approx(self.THREADS * self.OPS / 2)

    def test_concurrent_lookups_share_one_counter(self):
        # get-or-create runs under the registry lock: threads racing to
        # create the same name all increment one counter
        registry = MetricsRegistry()
        self._hammer(
            lambda t: [registry.counter("c").inc() for _ in range(self.OPS)]
        )
        assert len(registry) == 1
        assert registry.get("c").value == self.THREADS * self.OPS

"""Tests for cross-process metrics in the trace: periodic flushes and the
aggregator behind ``repro trace summarize``.

Every process flushes its whole registry into the trace as cumulative
``metric`` records. Covers the merge semantics over those records (the
latest record per pid and name counts; counters add, gauges keep the latest
write, histograms add element-wise), the merge edge cases (overflow
buckets, disjoint name sets, mid-observation flushes), and the end-to-end
guarantees: a traced sweep's merged metrics equal the live
``SweepMetrics`` at any worker count, a fuzz campaign's summary prints its
per-op verdict table and counts its tasks, and a worker killed mid-task
keeps what it flushed before.
"""

import io
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.exec.engine import ExecutionEngine
from repro.exec.task import Task
from repro.obs import (
    MetricsRegistry,
    aggregate_records,
    configure_tracing,
    get_tracer,
    read_trace,
    set_tracer,
    summarize_trace,
    validate_trace,
)
from repro.obs.summary import merge_metric_records


def make_registry(counter=0, gauge=None, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("hits").inc(counter)
    if gauge is not None:
        registry.gauge("depth").set(gauge)
    for value in observations:
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(value)
    return registry


def flush_records(registry, *, pid, time=1000.0):
    """The ``metric`` records one flush of ``registry`` writes, by hand."""
    return [
        {"type": "metric", "pid": pid, "time": time, **record}
        for record in registry.to_records()
    ]


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


class TestAggregation:
    def test_counters_add_across_pids(self):
        records = (
            flush_records(make_registry(counter=3), pid=1)
            + flush_records(make_registry(counter=4), pid=2)
        )
        snapshot = aggregate_records(records)
        assert snapshot.counter("hits") == 7
        assert snapshot.pids == [1, 2]
        assert snapshot.record_count == 2

    def test_later_snapshot_of_same_pid_supersedes(self):
        records = (
            flush_records(make_registry(counter=3), pid=1, time=1.0)
            + flush_records(make_registry(counter=10), pid=1, time=2.0)
            + flush_records(make_registry(counter=5), pid=2, time=1.0)
        )
        snapshot = aggregate_records(records)
        # cumulative semantics: pid 1 contributes 10, not 13
        assert snapshot.counter("hits") == 15
        assert snapshot.record_count == 3

    def test_latest_record_counts_per_name(self):
        # a process killed mid-flush leaves only some names of its last
        # flush; every name keeps its own latest record
        first = MetricsRegistry()
        first.counter("a").inc(1)
        first.counter("b").inc(1)
        records = flush_records(first, pid=1, time=1.0)
        records.append(
            {"type": "metric", "pid": 1, "time": 2.0, "kind": "counter",
             "name": "a", "value": 4}
        )
        snapshot = aggregate_records(records)
        assert snapshot.counter("a") == 4
        assert snapshot.counter("b") == 1

    def test_other_record_types_are_ignored(self):
        records = [
            {"type": "meta", "version": 1, "pid": 1, "time": 0.0,
             "attrs": {}},
            {"type": "event", "name": "task-done", "pid": 1, "seq": 0,
             "time": 0.0, "span_id": None, "attrs": {}},
            *flush_records(make_registry(counter=2), pid=1),
        ]
        snapshot = aggregate_records(records)
        assert snapshot.counter("hits") == 2
        assert snapshot.record_count == 1

    def test_gauge_latest_write_wins_across_pids(self):
        records = (
            flush_records(make_registry(gauge=111), pid=1, time=2000.0)
            + flush_records(make_registry(gauge=222), pid=2, time=1000.0)
        )
        snapshot = aggregate_records(records)
        assert snapshot.metrics["depth"]["value"] == 111
        assert "_gauge_time" not in snapshot.metrics["depth"]

    def test_histograms_add_elementwise(self):
        records = (
            flush_records(make_registry(observations=[0.5, 1.5]), pid=1)
            + flush_records(make_registry(observations=[0.25]), pid=2)
        )
        merged = aggregate_records(records).metrics["lat"]
        assert merged["counts"] == [2, 1, 0]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(2.25)
        assert merged["min"] == 0.25
        assert merged["max"] == 1.5
        # the merged record has the registry's own layout
        assert set(merged) == {
            "kind", "name", "buckets", "counts", "sum", "count", "min", "max",
        }

    def test_overflow_bucket_accumulates(self):
        # values beyond the last bound land in the implicit overflow
        # bucket; the merged overflow count must be the exact sum
        records = (
            flush_records(make_registry(observations=[9.0, 8.0]), pid=1)
            + flush_records(make_registry(observations=[7.0]), pid=2)
        )
        merged = aggregate_records(records).metrics["lat"]
        assert merged["counts"] == [0, 0, 3]
        assert merged["max"] == 9.0

    def test_disjoint_metric_name_sets_union(self):
        left = MetricsRegistry()
        left.counter("only.left").inc(2)
        right = MetricsRegistry()
        right.counter("only.right").inc(5)
        right.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        snapshot = aggregate_records(
            flush_records(left, pid=1) + flush_records(right, pid=2)
        )
        assert snapshot.counter("only.left") == 2
        assert snapshot.counter("only.right") == 5
        assert list(snapshot.metrics) == sorted(snapshot.metrics)

    def test_empty_histogram_side_does_not_poison_min_max(self):
        # to_record writes min/max as 0.0 placeholders when count == 0;
        # merging such a side must not drag min/max toward zero
        empty = MetricsRegistry()
        empty.histogram("lat", buckets=(1.0, 2.0))
        records = (
            flush_records(empty, pid=1)
            + flush_records(make_registry(observations=[1.7]), pid=2)
        )
        merged = aggregate_records(records).metrics["lat"]
        assert merged["count"] == 1
        assert merged["min"] == 1.7
        assert merged["max"] == 1.7

    def test_mid_observation_snapshot_merges_consistently(self):
        # a flush taken while another thread hammers the histogram must
        # still be internally consistent (locked to_record) and mergeable
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        stop = threading.Event()

        def hammer():
            value = 0
            while not stop.is_set():
                histogram.observe((value % 30) / 10.0)
                value += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            mid_records = [registry.to_records() for _ in range(50)]
        finally:
            stop.set()
            thread.join()
        records = flush_records(make_registry(observations=[0.5]), pid=1)
        for seq, metrics in enumerate(mid_records):
            records.extend(
                {"type": "metric", "pid": 2, "time": float(seq), **metric}
                for metric in metrics
            )
        for metrics in mid_records:
            (histo,) = metrics
            assert sum(histo["counts"]) == histo["count"]
        merged = aggregate_records(records).metrics["lat"]
        # latest pid-2 flush + the single pid-1 observation
        assert merged["count"] == mid_records[-1][0]["count"] + 1
        assert sum(merged["counts"]) == merged["count"]

    def test_kind_mismatch_raises(self):
        counter = {"kind": "counter", "name": "m", "value": 1}
        gauge = {"kind": "gauge", "name": "m", "value": 1}
        with pytest.raises(ValueError, match="in one process"):
            merge_metric_records(dict(counter), gauge, time_key=0.0)
        # and through the aggregator, across two processes' records
        with pytest.raises(ValueError, match="in one process"):
            aggregate_records([
                {"type": "metric", "pid": 1, "time": 0.0, **counter},
                {"type": "metric", "pid": 2, "time": 0.0, **gauge},
            ])

    def test_bucket_mismatch_raises(self):
        def histo(buckets):
            return {
                "kind": "histogram", "name": "h", "buckets": buckets,
                "counts": [0] * (len(buckets) + 1), "sum": 0.0,
                "count": 0, "min": 0.0, "max": 0.0,
            }
        with pytest.raises(ValueError, match="buckets"):
            merge_metric_records(
                histo([1.0, 2.0]), histo([1.0, 3.0]), time_key=0.0
            )

    def test_malformed_metric_record_raises_value_error(self):
        # a trace is outside input: a bad record is reported, not a KeyError
        with pytest.raises(ValueError, match="metric.name"):
            aggregate_records([
                {"type": "metric", "pid": 1, "time": 1.0,
                 "kind": "counter", "value": 3},
            ])

    def test_empty_trace_aggregates_to_empty_snapshot(self):
        snapshot = aggregate_records([])
        assert snapshot.metrics == {}
        assert snapshot.pids == []
        assert snapshot.record_count == 0
        assert snapshot.counter("anything") == 0


class TestSweepEquivalence:
    """A traced run's merged metrics equal the live in-process numbers."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_aggregated_trace_equals_sweep_metrics(self, tmp_path, workers):
        from repro.eval.runner import ExperimentRunner
        from repro.evalsuite.suite import build_suite
        from repro.obs import summarize_records

        trace = tmp_path / "sweep.trace.jsonl"
        runner = ExperimentRunner(
            suite=build_suite().head(2),
            workers=workers,
            trace_path=str(trace),
        )
        runner.run_all()
        live = runner.metrics
        records = read_trace(trace)
        merged = aggregate_records(records)
        summary = summarize_records(records)

        # the live counts are the store's compile and simulate lookups
        for event, want in (("hit", live.cache_hits),
                            ("miss", live.cache_misses)):
            assert sum(
                merged.counter(f"toolchain.store.{stage}.{event}")
                for stage in ("compile", "simulate")
            ) == want
        assert merged.counter("pipeline.runs") == live.ok
        # and the trace summarizer reconstructs the same numbers
        assert summary.cache_hits == live.cache_hits
        assert summary.cache_misses == live.cache_misses
        assert summary.tasks_ok == live.ok
        assert summary.metric_count == merged.record_count
        # every process that ran tasks flushed: the sweep's own when
        # serial, each worker's when parallel
        assert len(merged.pids) == workers
        count, errors = validate_trace(trace)
        assert errors == []
        assert count >= merged.record_count >= 1

    def test_fuzz_campaign_traces_class_counters(self, tmp_path):
        from repro.qa.fuzz import run_fuzz

        trace = tmp_path / "fuzz.trace.jsonl"
        configure_tracing(trace)
        report = run_fuzz(3, 4, workers=1)
        merged = aggregate_records(read_trace(trace))
        assert merged.counter("qa.fuzz.programs") == len(report.results)
        assert merged.counter("qa.fuzz.divergences") == len(
            report.divergences
        )
        # the summary prints the per-op verdict table, one line per op kind
        out = io.StringIO()
        assert cli_main(["trace", "summarize", str(trace)], out=out) == 0
        lines = out.getvalue().splitlines()
        start = lines.index("  per-op verdicts (programs using each op kind):")
        table = {}
        for line in lines[start + 1:]:
            op, cells = line.split(None, 1)
            table[op] = {
                verdict: int(count)
                for verdict, count in (
                    cell.split("=") for cell in cells.split(", ")
                )
            }
        assert table == report.op_class_counts

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fuzz_campaign_traces_its_tasks(self, tmp_path, workers):
        """The engine records its own task events, so a campaign's trace
        counts every program, not only a sweep's."""
        from repro.qa.fuzz import run_fuzz

        trace = tmp_path / "fuzz.trace.jsonl"
        configure_tracing(trace)
        run_fuzz(0, 4, workers=workers)
        summary = summarize_trace(trace)
        assert (summary.tasks_done, summary.tasks_total) == (4, 4)
        assert (summary.tasks_ok, summary.tasks_error) == (4, 0)


def _count_task(units, hang):
    get_tracer().metrics.counter("test.units").inc(units)
    if hang:
        time.sleep(300)
    return units


class TestKilledWorker:
    def test_killed_worker_keeps_its_first_tasks_counters(self, tmp_path):
        """A worker killed by the task timeout on its second task keeps the
        counters its first task flushed."""
        trace = tmp_path / "killed.trace.jsonl"
        tracer = configure_tracing(trace)
        # flush just before the workers fork: each must still flush its
        # first task at once rather than inherit this flush's throttle
        tracer.flush_metrics()
        engine = ExecutionEngine(workers=2, timeout=1.0, retries=0)
        # two workers take the two quick tasks; whichever finishes first
        # takes the hanging one as its second task and is killed
        outcomes = engine.run([
            Task(index=0, key="one", fn=_count_task, args=(1, False)),
            Task(index=1, key="two", fn=_count_task, args=(2, False)),
            Task(index=2, key="hang", fn=_count_task, args=(100, True)),
        ])
        assert [o.status for o in outcomes] == ["ok", "ok", "timeout"]
        merged = aggregate_records(read_trace(trace))
        # 1 + 2 from the two first tasks; the hung task's 100 died unflushed
        assert merged.counter("test.units") == 3

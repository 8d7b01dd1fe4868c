"""Tests for cross-process metrics in the trace: periodic flushes and the
aggregator behind ``repro trace summarize``.

Every process flushes its whole registry into the trace as cumulative
``metric`` records, one per counter. Covers the sum over those records
(the latest record per pid and name counts; counters add across pids),
and the end-to-end guarantees: a traced sweep's summed counters equal the
live ``SweepMetrics`` at any worker count, every ``metric`` record a sweep
or fuzz campaign writes is a counter, a fuzz campaign's summary prints its
per-op verdict table and counts its tasks, and a worker killed mid-task
keeps what it flushed before.
"""

import io
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
    validate_record,
    validate_trace,
)


def make_registry(counter=0):
    registry = MetricsRegistry()
    if counter:
        registry.counter("hits").inc(counter)
    return registry


def flush_records(registry, *, pid, time=1000.0):
    """The ``metric`` records one flush of ``registry`` writes, by hand."""
    return [
        {"type": "metric", "pid": pid, "time": time, **record}
        for record in registry.to_records()
    ]


def assert_only_counters(records):
    metrics = [r for r in records if r["type"] == "metric"]
    assert metrics
    assert {r["kind"] for r in metrics} == {"counter"}
    assert all(set(r) == {"type", "pid", "time", "kind", "name", "value"}
               for r in metrics)


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

    def test_disjoint_metric_name_sets_union(self):
        left = MetricsRegistry()
        left.counter("only.left").inc(2)
        right = MetricsRegistry()
        right.counter("only.right").inc(5)
        snapshot = aggregate_records(
            flush_records(left, pid=1) + flush_records(right, pid=2)
        )
        assert snapshot.counter("only.left") == 2
        assert snapshot.counter("only.right") == 5
        assert list(snapshot.metrics) == sorted(snapshot.metrics)

    def test_float_sums_follow_pid_order(self):
        # 0.1 + 0.2 + 0.3 depends on the order of the additions; the sum
        # goes in pid order, whatever order the processes wrote in
        def seconds(pid, value):
            return {"type": "metric", "pid": pid, "time": 1.0,
                    "kind": "counter", "name": "seconds", "value": value}

        records = [seconds(1, 0.1), seconds(2, 0.2), seconds(3, 0.3)]
        expected = (0.1 + 0.2) + 0.3
        assert expected != 0.3 + 0.2 + 0.1
        for ordering in (records, records[::-1], records[1:] + records[:1]):
            snapshot = aggregate_records(ordering)
            assert snapshot.counter("seconds") == expected
            assert snapshot.pids == [1, 2, 3]

    def test_summed_record_has_the_registry_layout(self):
        records = (
            flush_records(make_registry(counter=3), pid=1)
            + flush_records(make_registry(counter=4), pid=2)
        )
        merged = aggregate_records(records).metrics["hits"]
        assert merged == {"kind": "counter", "name": "hits", "value": 7}
        assert validate_record(
            {"type": "metric", "pid": 1, "time": 0.0, **merged}
        ) == []

    def test_malformed_metric_record_raises_value_error(self):
        # a trace is outside input: a bad record is reported, not a KeyError
        with pytest.raises(ValueError, match="metric.name"):
            aggregate_records([
                {"type": "metric", "pid": 1, "time": 1.0,
                 "kind": "counter", "value": 3},
            ])

    @pytest.mark.parametrize("fields, problem", [
        ({"kind": "gauge", "value": 9}, "metric.kind must be counter"),
        ({"kind": "histogram", "buckets": [1.0], "counts": [1, 0],
          "sum": 0.5, "count": 1, "min": 0.5, "max": 0.5},
         "metric.kind must be counter"),
        ({"kind": "counter", "value": -2},
         "metric.value must be a non-negative number"),
        ({"kind": "counter", "value": True},
         "metric.value must be a non-negative number"),
    ], ids=["gauge", "histogram", "negative", "boolean"])
    def test_non_counter_record_raises_value_error(self, fields, problem):
        # a well-formed counter of another process does not hide it
        records = flush_records(make_registry(counter=1), pid=1) + [
            {"type": "metric", "pid": 2, "time": 1.0, "name": "m", **fields},
        ]
        with pytest.raises(ValueError, match=problem):
            aggregate_records(records)

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
        assert_only_counters(records)
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
        records = read_trace(trace)
        assert_only_counters(records)
        merged = aggregate_records(records)
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

    def test_formal_fuzz_campaign_traces_only_counters(self, tmp_path):
        """The proofs count their checks and verdicts; their seconds stay
        on the ``formal.check`` spans."""
        from repro.qa.fuzz import run_fuzz

        trace = tmp_path / "formal.trace.jsonl"
        configure_tracing(trace)
        report = run_fuzz(0, 2, workers=1, formal=True)
        records = read_trace(trace)
        assert_only_counters(records)
        merged = aggregate_records(records)
        proofs = sum(report.formal_counts.values())
        assert proofs == 2 * len(report.results)  # both languages
        assert merged.counter("formal.checks") == proofs
        assert sum(
            merged.counter(f"formal.verdict.{verdict}")
            for verdict in report.formal_counts
        ) == proofs
        spans = [r for r in records
                 if r["type"] == "span" and r["name"] == "formal.check"]
        assert len(spans) == proofs
        assert validate_trace(trace)[1] == []

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

"""Tests for the span tracer: core semantics, process-safe trace files,
and the guarantee that tracing never changes results.

The heavyweight checks mirror the repo's execution-engine differential
philosophy:

* a ``workers=4`` traced sweep must produce one well-formed JSONL file —
  every line parses, validates against the record schema, and span
  parentage is identical to a serial run's (modulo pids/timestamps);
* a traced sweep must produce record-for-record the same ``ConfigResult``
  as an untraced one.
"""

import json

import pytest

from repro.eval.runner import ExperimentRunner
from repro.evalsuite.suite import build_suite
from repro.llm.profiles import GPT_4O
from repro.eda.toolchain import Language
from repro.obs import (
    MemorySink,
    NULL_TRACER,
    STATUS_ERROR,
    TRACE_FORMAT_VERSION,
    Tracer,
    configure_tracing,
    get_tracer,
    set_tracer,
    validate_record,
    validate_trace,
)
from tests.test_exec_differential import deterministic_fields

PROBLEM_COUNT = 6


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


def make_tracer():
    sink = MemorySink()
    return Tracer(sink), sink


class TestSpanSemantics:
    def test_span_records_name_timing_and_attrs(self):
        tracer, sink = make_tracer()
        with tracer.span("work", kind="test") as span:
            span.set_attr("extra", 1)
            span.set_attrs(more=True)
        (record,) = sink.records
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["attrs"] == {"kind": "test", "extra": 1, "more": True}
        assert record["status"] == "ok"
        assert record["end"] >= record["start"]
        assert record["wall_seconds"] >= 0.0
        assert record["cpu_seconds"] >= 0.0

    def test_nesting_sets_parent_and_emits_child_first(self):
        tracer, sink = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.records
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_siblings_share_parent(self):
        tracer, sink = make_tracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, outer = sink.records
        assert a["parent_id"] == b["parent_id"] == outer["span_id"]

    def test_span_ids_unique_and_pid_qualified(self):
        tracer, sink = make_tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [record["span_id"] for record in sink.records]
        assert len(set(ids)) == 5
        assert all("-" in span_id for span_id in ids)

    def test_exception_marks_error_and_propagates(self):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (record,) = sink.records
        assert record["status"] == STATUS_ERROR
        assert "RuntimeError: boom" in record["error"]
        # the stack must be unwound: the next span is a root again
        with tracer.span("after"):
            pass
        assert sink.records[-1]["parent_id"] is None

    def test_explicit_status_survives_exception(self):
        tracer, sink = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("s") as span:
                span.set_status(STATUS_ERROR, "custom reason")
                raise ValueError("ignored")
        assert sink.records[0]["error"] == "custom reason"

    def test_event_ties_to_current_span(self):
        tracer, sink = make_tracer()
        tracer.event("outside", n=0)
        with tracer.span("s"):
            tracer.event("inside", n=1)
        outside, inside, span = sink.records
        assert outside["span_id"] is None
        assert inside["span_id"] == span["span_id"]
        assert inside["attrs"] == {"n": 1}

    def test_meta_and_metric_flush(self):
        tracer, sink = make_tracer()
        tracer.write_meta(purpose="test")
        tracer.metrics.counter("c").inc(3)
        tracer.flush_metrics()
        meta, metric = sink.records
        assert meta["type"] == "meta"
        assert meta["attrs"] == {"purpose": "test"}
        assert metric["type"] == "metric"
        assert metric["name"] == "c" and metric["value"] == 3


class TestMetricFlush:
    def test_periodic_flush_throttles_but_force_bypasses(self):
        tracer, sink = make_tracer()
        tracer.metrics.counter("c").inc()
        assert tracer.flush_metrics(force=False) is True  # first: at once
        assert tracer.flush_metrics(force=False) is False  # throttled
        tracer.metrics.counter("c").inc()
        assert tracer.flush_metrics() is True  # forced
        assert [r["value"] for r in sink.records] == [1, 2]

    def test_interval_gates_the_periodic_flush(self, monkeypatch):
        monkeypatch.setattr(Tracer, "FLUSH_INTERVAL", 0.0)
        tracer, sink = make_tracer()
        tracer.metrics.counter("c").inc()
        assert tracer.flush_metrics(force=False) is True
        assert tracer.flush_metrics(force=False) is True
        assert len(sink.records) == 2

    def test_null_tracer_flush_writes_nothing(self):
        assert NULL_TRACER.flush_metrics() is False
        assert NULL_TRACER.flush_metrics(force=False) is False

    def test_flush_writes_one_valid_counter_record_per_counter(self):
        tracer, sink = make_tracer()
        tracer.metrics.counter("runs").inc(2)
        tracer.metrics.counter("seconds").inc(0.75)
        tracer.flush_metrics()
        assert [(r["name"], r["value"]) for r in sink.records] == [
            ("runs", 2), ("seconds", 0.75),
        ]
        for record in sink.records:
            assert record["kind"] == "counter"
            assert validate_record(record) == []

    def test_meta_header_carries_the_format_version(self):
        tracer, sink = make_tracer()
        tracer.write_meta()
        (meta,) = sink.records
        assert TRACE_FORMAT_VERSION == 2  # counters are the only metric
        assert meta["version"] == TRACE_FORMAT_VERSION
        assert validate_record(meta) == []


class TestJsonlSink:
    def test_close_flushes_and_is_reusable(self, tmp_path):
        from repro.obs import JsonlSink

        path = tmp_path / "sink.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("one"):
            pass
        tracer.metrics.counter("c").inc()
        tracer.close()  # flushes metrics, then closes the descriptor
        lines = [json.loads(line) for line in open(path)]
        assert [r["type"] for r in lines] == ["span", "metric"]
        # the sink reopens lazily after close
        with tracer.span("two"):
            pass
        assert len(open(path).readlines()) == 3
        tracer.sink.close()
        tracer.sink.close()  # idempotent

    def test_records_are_single_complete_lines(self, tmp_path):
        from repro.obs import JsonlSink

        sink = JsonlSink(tmp_path / "sink.jsonl")
        sink.write_record({"type": "meta", "nested": {"a": 1}})
        text = open(sink.path).read()
        assert text.endswith("\n")
        assert json.loads(text)["nested"] == {"a": 1}
        sink.close()


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_operations_produce_nothing(self):
        with NULL_TRACER.span("anything", key=1) as span:
            span.set_attr("a", 1)
            span.set_attrs(b=2)
            span.set_status("error", "x")
        NULL_TRACER.event("e", n=1)
        NULL_TRACER.write_meta(v=1)
        NULL_TRACER.flush_metrics()
        NULL_TRACER.close()
        assert NULL_TRACER.current_span() is None

    def test_null_span_exceptions_still_propagate(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("s"):
                raise KeyError("escapes")

    def test_set_tracer_none_restores_null(self):
        tracer, _ = make_tracer()
        set_tracer(tracer)
        assert get_tracer() is tracer
        set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestConfigureTracing:
    def test_none_path_leaves_tracer_unchanged(self):
        before = get_tracer()
        assert configure_tracing(None) is before
        assert get_tracer() is before

    def test_same_path_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = configure_tracing(path)
        second = configure_tracing(path)
        assert first is second
        assert get_tracer() is first

    def test_new_path_installs_new_tracer(self, tmp_path):
        first = configure_tracing(tmp_path / "a.jsonl")
        second = configure_tracing(tmp_path / "b.jsonl")
        assert first is not second
        assert get_tracer() is second


def run_sweep(trace_path=None, **kwargs):
    runner = ExperimentRunner(
        suite=build_suite().head(PROBLEM_COUNT),
        trace_path=str(trace_path) if trace_path else None,
        **kwargs,
    )
    results = runner.run_all(
        profiles=[GPT_4O], languages=(Language.VERILOG,)
    )
    return runner, results


def span_tree_shape(path):
    """Structural fingerprint of a trace: every span as (name, parent name,
    result attrs), sorted — pids, ids, and timestamps abstracted away, and
    so are the result-store hit/miss attributes, which depend on what the
    process that ran a task had already stored."""
    records = [json.loads(line) for line in open(path)]
    spans = {
        r["span_id"]: r for r in records if r["type"] == "span"
    }
    shape = []
    for span in spans.values():
        parent = spans.get(span["parent_id"])
        attrs = {
            k: v for k, v in span["attrs"].items()
            # drop modeled-time attrs and the worker count (the one knob
            # that legitimately differs between the two runs)
            if not k.startswith("latency_")
            and k not in ("tool_seconds", "workers")
            and k not in ("cache", "cache_hits", "cache_misses")
        }
        shape.append((
            span["name"],
            parent["name"] if parent else None,
            span["status"],
            tuple(sorted(attrs.items())),
        ))
    return sorted(shape)


def task_lookups(path):
    """Compile/simulate store lookups (hits + misses) of every task span."""
    records = [json.loads(line) for line in open(path)]
    return {
        r["attrs"]["key"]: r["attrs"]["cache_hits"] + r["attrs"]["cache_misses"]
        for r in records
        if r["type"] == "span" and r["name"] == "task.problem"
    }


class TestMultiprocessTraceIntegrity:
    def test_parallel_trace_is_one_wellformed_jsonl(self, tmp_path):
        path = tmp_path / "parallel.jsonl"
        runner, results = run_sweep(trace_path=path, workers=4)
        assert all(result.error_count == 0 for result in results)
        count, errors = validate_trace(path)
        assert errors == []
        assert count > 0
        records = [json.loads(line) for line in open(path)]
        # spans from more than one process merged into the one file
        span_pids = {r["pid"] for r in records if r["type"] == "span"}
        assert len(span_pids) > 1

    def test_parallel_parentage_is_stable(self, tmp_path):
        path = tmp_path / "parallel.jsonl"
        run_sweep(trace_path=path, workers=4)
        records = [json.loads(line) for line in open(path)]
        spans = {r["span_id"]: r for r in records if r["type"] == "span"}
        # every parent reference resolves within the same file
        for span in spans.values():
            assert span["parent_id"] is None or span["parent_id"] in spans
        # every task span hangs off the engine.run span
        engine = [s for s in spans.values() if s["name"] == "engine.run"]
        assert len(engine) == 1
        tasks = [s for s in spans.values() if s["name"] == "task.problem"]
        assert len(tasks) == PROBLEM_COUNT
        assert all(t["parent_id"] == engine[0]["span_id"] for t in tasks)

    def test_parallel_replay_equals_serial_replay(self, tmp_path):
        # every process has its own result store, so whether a lookup hits
        # depends on which tasks ran there before: the shapes abstract the
        # hit/miss attributes away, and each task must still make the same
        # number of lookups in both runs
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(trace_path=serial, workers=1)
        run_sweep(trace_path=parallel, workers=4)
        assert span_tree_shape(serial) == span_tree_shape(parallel)
        lookups = task_lookups(serial)
        assert len(lookups) == PROBLEM_COUNT
        assert lookups == task_lookups(parallel)


class TestTracingChangesNothing:
    def test_traced_equals_untraced(self, tmp_path):
        _, untraced = run_sweep()
        _, traced = run_sweep(trace_path=tmp_path / "trace.jsonl")
        for a, b in zip(untraced, traced):
            assert (
                [deterministic_fields(r) for r in a.records]
                == [deterministic_fields(r) for r in b.records]
            )

    def test_global_tracer_restored_after_traced_sweep(self, tmp_path):
        before = get_tracer()
        run_sweep(trace_path=tmp_path / "trace.jsonl")
        assert get_tracer() is before

    def test_untraced_sweep_after_traced_appends_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_sweep(trace_path=path)
        size = path.stat().st_size
        run_sweep()  # no trace_path: must not touch the old file
        assert path.stat().st_size == size

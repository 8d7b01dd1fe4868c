"""``repro.obs`` — span tracing, counters, and structured run telemetry.

Public surface:

* :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.Span` — timed,
  attributed, hierarchical spans written as JSONL; the module-level current
  tracer (:func:`get_tracer` / :func:`set_tracer` /
  :func:`configure_tracing`) defaults to the zero-cost
  :data:`~repro.obs.trace.NULL_TRACER`;
* :class:`~repro.obs.sink.JsonlSink` / :class:`~repro.obs.sink.MemorySink` —
  process-safe trace outputs (one atomic ``write`` per line);
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, the only
  metric kind (a timer is a counter of seconds);
* :func:`~repro.obs.schema.validate_record` /
  :func:`~repro.obs.schema.validate_trace` — dependency-free record
  validation against :data:`~repro.obs.schema.TRACE_RECORD_SCHEMA`;
* :func:`~repro.obs.summary.summarize_trace` /
  :func:`~repro.obs.summary.render_trace_summary` — the Figure 3-style
  aggregation behind ``repro trace summarize``;
* :func:`~repro.obs.summary.aggregate_records` — the cross-process sum
  of a trace's ``metric`` records that ``repro trace summarize`` reads;
* :func:`~repro.obs.analyze.critical_path` /
  :func:`~repro.obs.analyze.fold_stacks` — span-tree analytics behind
  ``repro trace critical-path`` and ``repro trace flame``;
* :func:`~repro.obs.baseline.check_baselines` — the ``repro bench check``
  perf-regression gate over committed ``BENCH_*.json`` baselines.
"""

from repro.obs.analyze import (
    PathStep,
    SpanNode,
    build_span_forest,
    critical_path,
    critical_path_of_trace,
    fold_stacks,
    fold_trace,
    render_critical_path,
    render_flame,
)
from repro.obs.baseline import (
    DEFAULT_TOLERANCE,
    BenchCheckReport,
    BenchDelta,
    check_baselines,
    compare_reports,
)
from repro.obs.metrics import (
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.schema import (
    TRACE_RECORD_SCHEMA,
    validate_record,
    validate_trace,
)
from repro.obs.sink import JsonlSink, MemorySink, NullSink
from repro.obs.summary import (
    AgentBreakdown,
    ConfigTraceSummary,
    MetricsSnapshot,
    TraceSummary,
    aggregate_records,
    read_trace,
    render_agent_breakdown,
    render_trace_summary,
    summarize_agents,
    summarize_records,
    summarize_trace,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    STATUS_ERROR,
    STATUS_OK,
    TRACE_FORMAT_VERSION,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "NULL_SPAN",
    "STATUS_OK",
    "STATUS_ERROR",
    "TRACE_FORMAT_VERSION",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_METRIC",
    "Counter",
    "TRACE_RECORD_SCHEMA",
    "validate_record",
    "validate_trace",
    "TraceSummary",
    "ConfigTraceSummary",
    "read_trace",
    "summarize_records",
    "summarize_trace",
    "render_trace_summary",
    "AgentBreakdown",
    "summarize_agents",
    "render_agent_breakdown",
    "MetricsSnapshot",
    "aggregate_records",
    # trace analytics (repro.obs.analyze)
    "SpanNode",
    "PathStep",
    "build_span_forest",
    "critical_path",
    "critical_path_of_trace",
    "render_critical_path",
    "fold_stacks",
    "fold_trace",
    "render_flame",
    # perf-regression gate (repro.obs.baseline)
    "BenchDelta",
    "BenchCheckReport",
    "DEFAULT_TOLERANCE",
    "compare_reports",
    "check_baselines",
]


def get_spool():
    """Always ``None``: metrics go into the trace, and no spool exists.

    ``perfbench/run.py`` imports this name to refuse running while a
    metrics spool is installed. Drop the stub together with that import.
    """
    return None

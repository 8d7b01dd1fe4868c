"""Span tracing: hierarchical timed regions written to a trace sink.

A :class:`Span` is one timed region of work — a pipeline run, one syntax-loop
iteration, one toolchain compile — with a process-unique id, a parent id
(the span that was open when it started), wall/CPU durations, free-form
scalar attributes, and an ok/error status. Spans are emitted to the sink
when they close, child before parent, so a trace file is replayable without
buffering.

The module-level **current tracer** (:func:`get_tracer` / :func:`set_tracer`)
is how instrumented code finds the tracer without threading it through every
signature. The default is :data:`NULL_TRACER`, a no-op whose spans cost a
couple of function calls and allocate nothing — tracing disabled is the
zero-cost default, and instrumentation never changes results either way
(``tests/test_obs_trace.py`` enforces both).

Worker processes forked mid-sweep inherit the configured tracer; the sink
reopens its file descriptor per pid and every process draws span ids from a
pid-qualified counter, so one trace file deterministically merges spans from
any number of workers (``repro.exec`` relies on this). Every process also
flushes its counters into the same file as cumulative ``metric`` records
(:meth:`Tracer.flush_metrics`), so the trace is the one telemetry file a
run leaves behind.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sink import JsonlSink

#: bumped when the record layout changes; written into every meta record
TRACE_FORMAT_VERSION = 2

STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One timed, attributed region; created by :meth:`Tracer.span`."""

    __slots__ = (
        "name", "span_id", "parent_id", "pid", "seq", "attrs",
        "status", "error", "start", "end", "wall_seconds", "cpu_seconds",
        "_perf0", "_cpu0",
    )

    def __init__(self, name, span_id, parent_id, pid, seq, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.seq = seq
        self.attrs = attrs
        self.status = STATUS_OK
        self.error = ""
        self.start = time.time()
        self.end = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._perf0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def set_status(self, status: str, error: str = "") -> None:
        self.status = status
        self.error = error

    def to_record(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "seq": self.seq,
            "start": self.start,
            "end": self.end,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


class _SpanScope:
    """Context manager binding one span's lifetime to a ``with`` block."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        if exc_type is not None and span.status == STATUS_OK:
            span.set_status(STATUS_ERROR, f"{exc_type.__name__}: {exc}")
        self._tracer._finish(span)
        return False


class Tracer:
    """Creates spans and point events, and owns a metrics registry."""

    enabled = True
    #: least monotonic seconds between two periodic metric flushes of one
    #: process (:meth:`flush_metrics` with ``force=False``)
    FLUSH_INTERVAL = 1.0

    def __init__(self, sink, *, registry: MetricsRegistry | None = None):
        self.sink = sink
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._seq = itertools.count()
        self._local = threading.local()
        self._flush_pid: int | None = None
        self._flushed_at = 0.0

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _start(self, name: str, attrs: dict) -> Span:
        pid = os.getpid()
        current = self.current_span()
        seq = next(self._seq)
        span = Span(
            name=name,
            span_id=f"{pid:x}-{seq:x}",
            parent_id=current.span_id if current is not None else None,
            pid=pid,
            seq=seq,
            attrs=attrs,
        )
        self._stack().append(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - exits out of order
            stack.remove(span)
        span.wall_seconds = time.perf_counter() - span._perf0
        span.cpu_seconds = max(time.process_time() - span._cpu0, 0.0)
        span.end = time.time()
        self.sink.write_record(span.to_record())

    # -- public API ----------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanScope:
        """``with tracer.span("name", key=value) as span: ...``"""
        return _SpanScope(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """One point-in-time record, tied to the currently open span."""
        current = self.current_span()
        self.sink.write_record({
            "type": "event",
            "name": name,
            "pid": os.getpid(),
            "seq": next(self._seq),
            "time": time.time(),
            "span_id": current.span_id if current is not None else None,
            "attrs": attrs,
        })

    def write_meta(self, **attrs) -> None:
        """Trace header: format version plus free-form provenance attrs."""
        self.sink.write_record({
            "type": "meta",
            "version": TRACE_FORMAT_VERSION,
            "pid": os.getpid(),
            "time": time.time(),
            "attrs": attrs,
        })

    def flush_metrics(self, *, force: bool = True) -> bool:
        """Write this process's metrics registry as ``metric`` records.

        The records are cumulative: a later flush from the same process
        supersedes its earlier ones when the trace is aggregated
        (:func:`~repro.obs.summary.aggregate_records`). ``force=False`` is
        the periodic flush the execution engine makes after every task: it
        writes at once on a process's first flush (so a forked worker starts
        unthrottled), then at most once per :attr:`FLUSH_INTERVAL`. Returns
        whether records were written.
        """
        pid = os.getpid()
        now = time.monotonic()
        if (
            not force
            and pid == self._flush_pid
            and now - self._flushed_at < self.FLUSH_INTERVAL
        ):
            return False
        self._flush_pid = pid
        self._flushed_at = now
        stamp = time.time()
        for record in self.metrics.to_records():
            self.sink.write_record(
                {"type": "metric", "pid": pid, "time": stamp, **record}
            )
        return True

    def close(self) -> None:
        self.flush_metrics()
        self.sink.close()


# ---------------------------------------------------------------------------
# no-op implementation: the zero-cost default
# ---------------------------------------------------------------------------


class NullSpan:
    """Absorbs attribute/status updates; one shared instance."""

    __slots__ = ()
    name = ""
    span_id = ""
    parent_id = None
    status = STATUS_OK

    def set_attr(self, key, value) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass

    def set_status(self, status, error="") -> None:
        pass


NULL_SPAN = NullSpan()


class _NullSpanScope:
    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SCOPE = _NullSpanScope()


class NullTracer:
    """Tracing disabled: every operation is a no-op returning singletons."""

    enabled = False
    metrics = NULL_REGISTRY

    def span(self, name: str, **attrs) -> _NullSpanScope:
        return _NULL_SCOPE

    def current_span(self) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        pass

    def write_meta(self, **attrs) -> None:
        pass

    def flush_metrics(self, *, force: bool = True) -> bool:
        return False

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

_tracer = NULL_TRACER


def get_tracer():
    """The process-wide current tracer (the no-op tracer by default)."""
    return _tracer


def set_tracer(tracer):
    """Install ``tracer`` as current (``None`` restores the no-op tracer)."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return _tracer


def configure_tracing(path):
    """Install (or reuse) a JSONL tracer writing to ``path``.

    ``None`` leaves the current tracer untouched — callers can pass their
    optional trace-path straight through. Calling again with the path of
    the already-current tracer returns it unchanged (idempotent, so worker
    initializers are safe under both ``fork`` and ``spawn``).
    """
    if path is None:
        return get_tracer()
    path = os.fspath(path)
    current = get_tracer()
    if (
        isinstance(current, Tracer)
        and isinstance(current.sink, JsonlSink)
        and current.sink.path == path
    ):
        return current
    return set_tracer(Tracer(JsonlSink(path)))

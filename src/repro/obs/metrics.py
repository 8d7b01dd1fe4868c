"""In-process metrics: named counters.

The registry is the queryable, in-memory side of the observability layer;
the JSONL trace is the durable side. Every counter renders itself into one
``metric`` trace record (see :mod:`repro.obs.schema`) via ``to_record`` so a
:class:`~repro.obs.trace.Tracer` can flush its registry into the trace.

The counter is the only metric kind. Counts from different processes merge
by plain addition, which is what the trace summarizer relies on; a timer
is a counter of seconds (``inc`` takes float amounts).

Null variants (:data:`NULL_REGISTRY`) back the no-op tracer: every lookup
returns the same do-nothing counter, so instrumented code pays only a
couple of attribute lookups when tracing is disabled.
"""

from __future__ import annotations

import threading


class Counter:
    """Monotonically increasing count (cache hits, tokens, runs, seconds).

    Updates and snapshots are serialized by a per-metric lock, so
    concurrent threads never lose an increment and ``to_record`` always
    sees a complete update.
    """

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def to_record(self) -> dict:
        with self._lock:
            return {"kind": self.kind, "name": self.name, "value": self.value}


class MetricsRegistry:
    """Named get-or-create store of counters, thread-safe, one per tracer."""

    def __init__(self):
        self._metrics: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        """The counter registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._metrics.get(name)
            if counter is None:
                counter = self._metrics[name] = Counter(name)
            return counter

    def to_records(self) -> list[dict]:
        """One serializable record per counter, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [metric.to_record() for metric in metrics]


class _NullMetric:
    """Accepts every increment, stores nothing; shared by all null lookups."""

    __slots__ = ()
    value = 0

    def inc(self, amount=1) -> None:
        pass


NULL_METRIC = _NullMetric()


class NullRegistry:
    """Registry of the no-op tracer: every name maps to the null counter."""

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def get(self, name):
        return None

    def counter(self, name) -> _NullMetric:
        return NULL_METRIC

    def to_records(self) -> list[dict]:
        return []


NULL_REGISTRY = NullRegistry()

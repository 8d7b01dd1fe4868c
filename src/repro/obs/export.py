"""Exposition of a merged metrics snapshot: Prometheus text + health JSON.

``repro obs export`` renders the :class:`~repro.obs.summary.MetricsSnapshot`
that :func:`~repro.obs.summary.aggregate_records` merges from a trace's
``metric`` records into the two documents a long-lived service serves from
``/metrics`` and ``/healthz``:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4): counters and gauges as single samples, histograms as
  the conventional cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
  triple. Metric names are sanitized (``cache.hit`` →
  ``repro_cache_hit``) and each family carries ``# TYPE`` / ``# HELP``
  headers, so the output scrapes cleanly with stock tooling.
* :func:`render_health` — a JSON health document: process and record
  counts, freshness of the latest flush, and a compact per-metric summary.
  This is
  the exact payload ``repro serve`` will mount once it exists; until
  then CI archives it per run.
"""

from __future__ import annotations

import json
import re
import time

from repro.obs.summary import MetricsSnapshot

#: every exported metric family is namespaced under this prefix
PROMETHEUS_PREFIX = "repro"

_NAME_OK = re.compile(r"[a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a Prometheus family name."""
    cleaned = "".join(
        ch if _NAME_OK.fullmatch(ch) else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{PROMETHEUS_PREFIX}_{cleaned}"


def _format_value(value) -> str:
    if isinstance(value, bool):  # pragma: no cover - registry never emits
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """The merged snapshot in Prometheus text exposition format."""
    lines: list[str] = []
    for name, record in snapshot.metrics.items():
        family = prometheus_name(name)
        kind = record["kind"]
        lines.append(f"# HELP {family} repro metric {name}")
        if kind == "counter":
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family} {_format_value(record['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {family} gauge")
            lines.append(f"{family} {_format_value(record['value'])}")
        else:  # histogram
            lines.append(f"# TYPE {family} histogram")
            cumulative = 0
            for bound, count in zip(record["buckets"], record["counts"]):
                cumulative += count
                lines.append(
                    f'{family}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            cumulative += record["counts"][-1]
            lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{family}_sum {_format_value(record['sum'])}")
            lines.append(f"{family}_count {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _metric_summary(record: dict) -> dict:
    if record["kind"] == "histogram":
        count = record["count"]
        return {
            "kind": "histogram",
            "count": count,
            "sum": record["sum"],
            "mean": record["sum"] / count if count else 0.0,
            "min": record["min"],
            "max": record["max"],
        }
    return {"kind": record["kind"], "value": record["value"]}


def render_health(snapshot: MetricsSnapshot, *, now: float | None = None) -> str:
    """A JSON health document for the merged snapshot.

    ``status`` is ``"ok"`` when at least one process has flushed metrics
    and ``"empty"`` otherwise; ``staleness_seconds`` measures the age of
    the freshest flush (against ``now``, injectable for tests).
    """
    now = time.time() if now is None else now
    document = {
        "status": "ok" if snapshot.record_count else "empty",
        "trace": snapshot.path,
        "processes": len(snapshot.pids),
        "pids": snapshot.pids,
        "records": snapshot.record_count,
        "earliest": snapshot.earliest,
        "latest": snapshot.latest,
        "staleness_seconds": (
            max(now - snapshot.latest, 0.0) if snapshot.record_count else None
        ),
        "metric_count": len(snapshot.metrics),
        "metrics": {
            name: _metric_summary(record)
            for name, record in snapshot.metrics.items()
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"

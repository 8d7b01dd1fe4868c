"""Trace record schema and validation.

Every line of a trace file is one JSON object of ``type`` ``meta``, ``span``,
``event``, or ``metric``; a ``metric`` record is one counter's cumulative
``value``, never negative. :data:`TRACE_RECORD_SCHEMA` documents the layout
in JSON-Schema form (for external tooling); :func:`validate_record` is the
dependency-free validator the test-suite and ``repro trace validate`` use —
CI runs it over every line of a freshly recorded sweep trace.
"""

from __future__ import annotations

import json

#: JSON-Schema rendition of the record layout (documentation + external tools)
TRACE_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro.obs trace record",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "meta"},
                "version": {"type": "integer", "minimum": 1},
                "pid": {"type": "integer"},
                "time": {"type": "number"},
                "attrs": {"type": "object"},
            },
            "required": ["type", "version", "pid", "time", "attrs"],
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "span"},
                "name": {"type": "string", "minLength": 1},
                "span_id": {"type": "string", "minLength": 1},
                "parent_id": {"type": ["string", "null"]},
                "pid": {"type": "integer"},
                "seq": {"type": "integer", "minimum": 0},
                "start": {"type": "number"},
                "end": {"type": "number"},
                "wall_seconds": {"type": "number", "minimum": 0},
                "cpu_seconds": {"type": "number", "minimum": 0},
                "status": {"enum": ["ok", "error"]},
                "error": {"type": "string"},
                "attrs": {"type": "object"},
            },
            "required": [
                "type", "name", "span_id", "parent_id", "pid", "seq",
                "start", "end", "wall_seconds", "cpu_seconds", "status",
                "error", "attrs",
            ],
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "event"},
                "name": {"type": "string", "minLength": 1},
                "pid": {"type": "integer"},
                "seq": {"type": "integer", "minimum": 0},
                "time": {"type": "number"},
                "span_id": {"type": ["string", "null"]},
                "attrs": {"type": "object"},
            },
            "required": [
                "type", "name", "pid", "seq", "time", "span_id", "attrs",
            ],
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "metric"},
                "kind": {"const": "counter"},
                "name": {"type": "string", "minLength": 1},
                "pid": {"type": "integer"},
                "time": {"type": "number"},
                "value": {"type": "number", "minimum": 0},
            },
            "required": ["type", "kind", "name", "pid", "time", "value"],
        },
    ],
}

_SCALAR = (str, int, float, bool, type(None))


def _check(errors, condition, message):
    if not condition:
        errors.append(message)


def _check_attrs(errors, record):
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        errors.append("attrs must be an object")
        return
    for key, value in attrs.items():
        _check(errors, isinstance(key, str), f"attr key {key!r} not a string")
        _check(
            errors, isinstance(value, _SCALAR),
            f"attr {key!r} has non-scalar value of type {type(value).__name__}",
        )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_record(record) -> list[str]:
    """Problems with one trace record; an empty list means it is valid."""
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    errors: list[str] = []
    rtype = record.get("type")
    if rtype == "meta":
        _check(
            errors,
            isinstance(record.get("version"), int) and record["version"] >= 1,
            "meta.version must be a positive integer",
        )
        _check(errors, isinstance(record.get("pid"), int), "pid must be an int")
        _check(errors, _is_number(record.get("time")), "time must be a number")
        _check_attrs(errors, record)
    elif rtype == "span":
        name = record.get("name")
        _check(errors, isinstance(name, str) and name, "span.name must be a non-empty string")
        _check(
            errors,
            isinstance(record.get("span_id"), str) and record.get("span_id"),
            "span.span_id must be a non-empty string",
        )
        parent = record.get("parent_id", 0)
        _check(
            errors, parent is None or isinstance(parent, str),
            "span.parent_id must be a string or null",
        )
        _check(errors, isinstance(record.get("pid"), int), "pid must be an int")
        _check(
            errors,
            isinstance(record.get("seq"), int) and record.get("seq", -1) >= 0,
            "span.seq must be a non-negative int",
        )
        for field in ("start", "end", "wall_seconds", "cpu_seconds"):
            _check(errors, _is_number(record.get(field)), f"span.{field} must be a number")
        if _is_number(record.get("start")) and _is_number(record.get("end")):
            _check(errors, record["end"] >= record["start"], "span.end precedes span.start")
        for field in ("wall_seconds", "cpu_seconds"):
            if _is_number(record.get(field)):
                _check(errors, record[field] >= 0, f"span.{field} is negative")
        _check(
            errors, record.get("status") in ("ok", "error"),
            "span.status must be 'ok' or 'error'",
        )
        _check(errors, isinstance(record.get("error"), str), "span.error must be a string")
        _check_attrs(errors, record)
    elif rtype == "event":
        name = record.get("name")
        _check(errors, isinstance(name, str) and name, "event.name must be a non-empty string")
        _check(errors, isinstance(record.get("pid"), int), "pid must be an int")
        _check(
            errors,
            isinstance(record.get("seq"), int) and record.get("seq", -1) >= 0,
            "event.seq must be a non-negative int",
        )
        _check(errors, _is_number(record.get("time")), "time must be a number")
        span_id = record.get("span_id", 0)
        _check(
            errors, span_id is None or isinstance(span_id, str),
            "event.span_id must be a string or null",
        )
        _check_attrs(errors, record)
    elif rtype == "metric":
        _check(
            errors, record.get("kind") == "counter",
            "metric.kind must be counter",
        )
        name = record.get("name")
        _check(errors, isinstance(name, str) and name, "metric.name must be a non-empty string")
        _check(errors, isinstance(record.get("pid"), int), "pid must be an int")
        _check(errors, _is_number(record.get("time")), "time must be a number")
        value = record.get("value")
        _check(
            errors, _is_number(value) and value >= 0,
            "metric.value must be a non-negative number",
        )
    else:
        errors.append(f"unknown record type {rtype!r}")
    return errors


def validate_trace(path) -> tuple[int, list[str]]:
    """Validate every line of a trace file.

    Returns ``(record_count, errors)`` where each error is prefixed with
    its 1-based line number. An empty file is reported as an error — a
    recorded sweep always writes at least its meta header.
    """
    errors: list[str] = []
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.endswith("\n"):
                errors.append(f"line {lineno}: truncated (no trailing newline)")
            text = line.strip()
            if not text:
                errors.append(f"line {lineno}: blank line")
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            count += 1
            for problem in validate_record(record):
                errors.append(f"line {lineno}: {problem}")
    if count == 0 and not errors:
        errors.append("trace contains no records")
    return count, errors

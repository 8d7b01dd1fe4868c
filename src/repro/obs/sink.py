"""Trace sinks: where serialized telemetry records go.

:class:`JsonlSink` is the production sink — one JSON object per line,
appended to a single file shared by every process of a sweep. Process
safety comes from two properties:

* the file is opened with ``O_APPEND`` and every record is written with a
  **single** ``os.write`` call, so concurrent writers never interleave
  bytes within a line (POSIX append semantics on regular files);
* the descriptor is (re)opened lazily per pid, so a worker forked while
  the parent holds the sink gets its own descriptor instead of sharing
  buffered state.

:class:`MemorySink` collects records in a list for tests; it round-trips
each record through ``json`` so anything a test captures is guaranteed to
be serializable exactly as the file sink would have written it.
"""

from __future__ import annotations

import json
import os


def encode_record(record: dict) -> bytes:
    """One canonical JSONL line: compact separators, sorted keys."""
    return (
        json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


class JsonlSink:
    """Appends one JSON line per record to ``path``; fork-safe."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd: int | None = None
        self._pid: int | None = None

    def _descriptor(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            if self._fd is not None:
                # descriptor inherited through fork: close our copy
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover - already closed
                    pass
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            self._pid = pid
        return self._fd

    def write_record(self, record: dict) -> None:
        os.write(self._descriptor(), encode_record(record))

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - already closed
                pass
        self._fd = None
        self._pid = None


class NullSink:
    """Discards every record.

    Backs a real :class:`~repro.obs.trace.Tracer` whose *registry* is
    wanted but whose span stream is not — e.g. a test that reads counters
    such as ``sim.batch_calls`` straight from the registry.
    """

    __slots__ = ()

    def write_record(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects records in memory (tests); enforces JSON serializability."""

    def __init__(self):
        self.records: list[dict] = []

    def write_record(self, record: dict) -> None:
        self.records.append(json.loads(encode_record(record)))

    def close(self) -> None:
        pass

"""``repro.exec`` — parallel, fault-tolerant experiment execution.

Public surface:

* :class:`~repro.exec.engine.ExecutionEngine` — process-pool engine with
  deterministic merge order, per-task timeouts and bounded crash retry;
* :class:`~repro.exec.task.Task` / :class:`~repro.exec.task.TaskOutcome` —
  the unit of work and its result envelope;
* :class:`~repro.exec.progress.ProgressEvent` /
  :class:`~repro.exec.progress.SweepMetrics` — the events the engine hands
  its ``progress`` callback, and the sweep counters that fold them.
"""

from repro.exec.engine import ExecutionEngine
from repro.exec.progress import (
    ENGINE_FINISH,
    ENGINE_START,
    TASK_DONE,
    TASK_ERROR,
    TASK_RETRY,
    ProgressEvent,
    SweepMetrics,
    format_progress_line,
)
from repro.exec.task import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskOutcome,
)

__all__ = [
    "ExecutionEngine",
    "Task",
    "TaskOutcome",
    "ProgressEvent",
    "SweepMetrics",
    "format_progress_line",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "STATUS_CRASHED",
    "TASK_DONE",
    "TASK_ERROR",
    "TASK_RETRY",
    "ENGINE_START",
    "ENGINE_FINISH",
]

"""Progress events and sweep-level metrics.

The engine hands a :class:`ProgressEvent` per transition (engine start and
finish, task done, retry, final error) to its one ``progress`` callback.
:class:`SweepMetrics` — tasks done, error/retry counts, toolchain-cache hit
rate, and modeled per-stage latency — folds those events
(:meth:`SweepMetrics.observe_event`); the experiment runner's callback
folds each event and its task payload before it calls the user's
``(event, metrics)`` callback, such as ``repro sweep --progress``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.exec.task import TaskOutcome

#: event kinds
TASK_DONE = "task-done"
TASK_RETRY = "task-retry"
TASK_ERROR = "task-error"
ENGINE_START = "engine-start"
ENGINE_FINISH = "engine-finish"


@dataclass
class ProgressEvent:
    """One engine-side progress notification."""

    kind: str
    done: int = 0  # tasks with a final outcome so far
    total: int = 0
    key: str = ""
    level: str = "info"  # "info" | "warning"
    attempts: int = 0
    seconds: float = 0.0
    message: str = ""
    outcome: "TaskOutcome | None" = None  # set for task-done / task-error


@dataclass
class SweepMetrics:
    """Aggregated metrics for one sweep, updated as outcomes arrive."""

    total: int = 0
    done: int = 0
    ok: int = 0
    errors: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: modeled seconds per pipeline stage, summed over finished tasks
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {
            "generation": 0.0, "syntax": 0.0, "functional": 0.0
        }
    )
    wall_seconds: float = 0.0

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def observe_event(self, event: ProgressEvent) -> None:
        """Fold one engine event into the counters (cache/stage data is
        folded separately by the runner, which understands the payloads)."""
        if event.kind == TASK_DONE:
            self.done = event.done
            self.ok += 1
            self.wall_seconds += event.seconds
        elif event.kind == TASK_ERROR:
            self.done = event.done
            self.errors += 1
        elif event.kind == TASK_RETRY:
            self.retries += 1

    def summary(self) -> str:
        parts = [
            f"{self.done}/{self.total} tasks",
            f"{self.errors} error(s)",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.cache_lookups:
            parts.append(f"cache {100.0 * self.cache_hit_rate:.1f}% hit")
        stage = ", ".join(
            f"{name} {seconds:.1f}s"
            for name, seconds in self.stage_seconds.items()
            if seconds
        )
        if stage:
            parts.append(f"modeled latency: {stage}")
        return "; ".join(parts)


def format_progress_line(event: ProgressEvent, metrics: SweepMetrics) -> str:
    """One human-readable status line per event, for CLI streaming."""
    tag = {"info": " ", "warning": "!"}.get(event.level, " ")
    head = f"[{event.done}/{event.total}]{tag} {event.kind:<10} {event.key}"
    bits = []
    if event.attempts > 1:
        bits.append(f"attempt {event.attempts}")
    if event.seconds:
        bits.append(f"{event.seconds:.2f}s")
    if metrics.cache_lookups:
        bits.append(f"cache {100.0 * metrics.cache_hit_rate:.0f}%")
    if event.message:
        bits.append(event.message.splitlines()[-1][:80])
    return head + (" (" + ", ".join(bits) + ")" if bits else "")

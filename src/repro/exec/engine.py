"""Process-pool execution engine with deterministic result ordering.

The engine fans a list of :class:`~repro.exec.task.Task` out across worker
processes and reassembles one :class:`~repro.exec.task.TaskOutcome` per task
**by task index**, never by completion order — so a parallel run is
record-for-record identical to a serial one.

Fault model:

* a task function that **raises** produces an ``error`` outcome immediately
  (the failure is deterministic; retrying would reproduce it);
* a task that **exceeds the per-task timeout** gets its worker terminated
  and is retried on a fresh worker, up to ``retries`` extra attempts;
* a **worker process that dies** mid-task (segfault, ``os._exit``, OOM
  kill) is detected, the task is retried the same way;
* when attempts are exhausted the sweep does **not** stop — the task gets a
  ``timeout``/``crashed`` outcome and every other task still completes. No
  task is ever lost and the engine never hangs on a wedged worker.

``workers=1`` (the default) runs every task inline in the calling process,
in submission order — byte-for-byte the behavior of a plain ``for`` loop.

Workers are spawned with the ``fork`` start method when the platform offers
it: task payloads here routinely reference objects (e.g. realized benchmark
suites) that are cheap to inherit through fork but impossible to pickle.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import queue as _queue
import time as _time
import traceback
from collections import deque
from typing import Callable, Iterable, Sequence

from repro.obs import get_tracer
from repro.exec.progress import (
    ENGINE_FINISH,
    ENGINE_START,
    TASK_DONE,
    TASK_ERROR,
    TASK_RETRY,
    ProgressEvent,
)
from repro.exec.task import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskOutcome,
)

log = logging.getLogger(__name__)

#: parent-side poll interval while waiting on busy workers
_POLL_SECONDS = 0.005
#: grace period for a worker to exit after receiving the shutdown sentinel
_JOIN_SECONDS = 1.0


def _format_exception(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _worker_main(worker_id, inbox, outbox, initializer, initargs):
    """Worker process loop: run the initializer, then tasks until sentinel."""
    if initializer is not None:
        try:
            initializer(*initargs)
        except BaseException:  # noqa: BLE001 - report, then die
            outbox.put(("init-error", -1, traceback.format_exc(), 0.0))
            return
    while True:
        item = inbox.get()
        if item is None:
            # cooperative shutdown: a final forced flush, so the trace's
            # merged metrics hold this worker's whole registry
            get_tracer().flush_metrics()
            return
        index, fn, args = item
        started = _time.perf_counter()
        try:
            value = fn(*args)
        except BaseException:  # noqa: BLE001 - tasks must never kill the loop
            outbox.put(
                ("error", index, traceback.format_exc(),
                 _time.perf_counter() - started)
            )
        else:
            outbox.put(
                ("ok", index, value, _time.perf_counter() - started)
            )
        # periodic metric flush into the trace (no-op when tracing is off);
        # a worker hard-killed later loses at most the delta since then
        get_tracer().flush_metrics(force=False)


class _Worker:
    """Parent-side handle for one worker process and its private queues."""

    def __init__(self, ctx, worker_id: int, initializer, initargs):
        self.id = worker_id
        self.inbox = ctx.Queue()
        self.outbox = ctx.Queue()
        self.current: Task | None = None
        self.started_at = 0.0
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, self.outbox, initializer, initargs),
            daemon=True,
        )
        self.process.start()

    def assign(self, task: Task) -> None:
        self.current = task
        self.started_at = _time.monotonic()
        self.inbox.put((task.index, task.fn, task.args))

    def poll(self):
        """Next message from the worker, or None."""
        try:
            return self.outbox.get_nowait()
        except _queue.Empty:
            return None

    def overdue(self, timeout: float | None) -> bool:
        return (
            timeout is not None
            and self.current is not None
            and _time.monotonic() - self.started_at > timeout
        )

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(_JOIN_SECONDS)
        self._drop_queues()

    def shutdown(self) -> None:
        """Cooperative stop: sentinel, short join, then force."""
        try:
            self.inbox.put(None)
        except (ValueError, OSError):  # pragma: no cover - queue torn down
            pass
        self.process.join(_JOIN_SECONDS)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(_JOIN_SECONDS)
        self._drop_queues()

    def _drop_queues(self) -> None:
        for q in (self.inbox, self.outbox):
            q.close()
            q.cancel_join_thread()


class ExecutionEngine:
    """Runs tasks serially or across a pool of worker processes.

    Parameters
    ----------
    workers:
        Process count. ``1`` (default) executes inline, in order, with no
        subprocess machinery at all.
    timeout:
        Per-task wall-clock budget in seconds (parallel mode only — a
        single process cannot preempt itself). ``None`` disables it.
    retries:
        Extra attempts granted to a task whose worker crashed or timed
        out. Task functions that *raise* are not retried.
    progress:
        Optional callback receiving a :class:`ProgressEvent` per
        transition. Each event is recorded in the trace first, when
        tracing is on, whoever runs the engine.
    initializer / initargs:
        Run once in each worker (and once in-process for serial runs)
        before any task; the place to build per-process context.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        timeout: float | None = None,
        retries: int = 1,
        progress: Callable[[ProgressEvent], None] | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.initializer = initializer
        self.initargs = initargs

    # ------------------------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> list[TaskOutcome]:
        """Execute all tasks; outcomes come back in task order."""
        task_list = list(tasks)
        indices = [t.index for t in task_list]
        if len(set(indices)) != len(indices):
            raise ValueError("task indices must be unique")
        with get_tracer().span(
            "engine.run",
            workers=self.workers,
            total=len(task_list),
            timeout=self.timeout,
            retries=self.retries,
        ) as span:
            log.info(
                "engine start: %d task(s), workers=%d, timeout=%s",
                len(task_list), self.workers, self.timeout,
            )
            self._emit(ProgressEvent(
                kind=ENGINE_START, done=0, total=len(task_list)
            ))
            if not task_list:
                outcomes: list[TaskOutcome] = []
            elif self.workers == 1:
                outcomes = self._run_serial(task_list)
            else:
                outcomes = self._run_parallel(task_list)
            self._emit(ProgressEvent(
                kind=ENGINE_FINISH, done=len(outcomes), total=len(task_list)
            ))
            failed = sum(1 for outcome in outcomes if not outcome.ok)
            span.set_attrs(done=len(outcomes), failed=failed)
            log.info(
                "engine finish: %d outcome(s), %d failed",
                len(outcomes), failed,
            )
        # the calling process's periodic flush; the sweep or campaign that
        # owns the tracer forces the final one
        get_tracer().flush_metrics(force=False)
        return outcomes

    # ------------------------------------------------------------------
    # serial path — the default, byte-for-byte a plain loop
    # ------------------------------------------------------------------

    def _run_serial(self, tasks: Sequence[Task]) -> list[TaskOutcome]:
        if self.initializer is not None:
            self.initializer(*self.initargs)
        outcomes = []
        for task in tasks:
            started = _time.perf_counter()
            try:
                value = task.fn(*task.args)
            except Exception as exc:  # noqa: BLE001 - degrade to a record
                outcome = TaskOutcome(
                    index=task.index,
                    key=task.key,
                    status=STATUS_ERROR,
                    error=traceback.format_exc(),
                    seconds=_time.perf_counter() - started,
                )
                outcomes.append(outcome)
                self._emit(ProgressEvent(
                    kind=TASK_ERROR, level="warning",
                    done=len(outcomes), total=len(tasks),
                    key=task.key, attempts=1,
                    message=_format_exception(exc), outcome=outcome,
                ))
            else:
                outcome = TaskOutcome(
                    index=task.index,
                    key=task.key,
                    status=STATUS_OK,
                    value=value,
                    seconds=_time.perf_counter() - started,
                )
                outcomes.append(outcome)
                self._emit(ProgressEvent(
                    kind=TASK_DONE,
                    done=len(outcomes), total=len(tasks),
                    key=task.key, attempts=1,
                    seconds=outcome.seconds, outcome=outcome,
                ))
            get_tracer().flush_metrics(force=False)  # periodic flush
        return outcomes

    # ------------------------------------------------------------------
    # parallel path
    # ------------------------------------------------------------------

    def _run_parallel(self, tasks: Sequence[Task]) -> list[TaskOutcome]:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        pending: deque[Task] = deque(tasks)
        attempts: dict[int, int] = {t.index: 0 for t in tasks}
        outcomes: dict[int, TaskOutcome] = {}
        total = len(tasks)
        pool: list[_Worker] = []
        next_worker_id = 0
        init_broken = False

        def spawn() -> _Worker:
            nonlocal next_worker_id
            worker = _Worker(
                ctx, next_worker_id, self.initializer, self.initargs
            )
            log.debug("spawned worker %d (pid %s)", worker.id, worker.process.pid)
            next_worker_id += 1
            return worker

        def finalize(task: Task, status: str, error: str, worker_id: int,
                     seconds: float = 0.0, value=None) -> None:
            outcome = TaskOutcome(
                index=task.index, key=task.key, status=status, value=value,
                error=error, attempts=attempts[task.index],
                seconds=seconds, worker=worker_id,
            )
            outcomes[task.index] = outcome
            kind = TASK_DONE if status == STATUS_OK else TASK_ERROR
            self._emit(ProgressEvent(
                kind=kind,
                level="info" if status == STATUS_OK else "warning",
                done=len(outcomes), total=total, key=task.key,
                attempts=attempts[task.index], seconds=seconds,
                message="" if status == STATUS_OK else
                (error.splitlines()[-1] if error else status),
                outcome=outcome,
            ))

        def fail_or_retry(task: Task, status: str, error: str,
                          worker_id: int) -> None:
            """Crash/timeout: requeue within budget, else record the loss."""
            if attempts[task.index] <= self.retries:
                log.warning(
                    "task %s %s on worker %d; retrying (%d/%d attempts used)",
                    task.key, status, worker_id, attempts[task.index],
                    1 + self.retries,
                )
                pending.append(task)
                self._emit(ProgressEvent(
                    kind=TASK_RETRY, level="warning",
                    done=len(outcomes), total=total, key=task.key,
                    attempts=attempts[task.index],
                    message=f"{status}; retrying "
                            f"({attempts[task.index]}/{1 + self.retries} "
                            f"attempts used)",
                ))
            else:
                log.warning(
                    "task %s lost to %s after %d attempt(s)",
                    task.key, status, attempts[task.index],
                )
                finalize(task, status, error, worker_id)

        try:
            for _ in range(min(self.workers, total)):
                pool.append(spawn())
            while len(outcomes) < total:
                # hand a task to every idle worker
                for worker in pool:
                    if worker.current is None and pending:
                        task = pending.popleft()
                        attempts[task.index] += 1
                        worker.assign(task)
                made_progress = False
                for worker in list(pool):
                    message = worker.poll()
                    if message is not None:
                        made_progress = True
                        status, index, payload, seconds = message
                        task, worker.current = worker.current, None
                        if status == "init-error":
                            init_broken = True
                            pool.remove(worker)
                            worker.kill()
                            if task is not None:
                                fail_or_retry(
                                    task, STATUS_CRASHED, payload, worker.id
                                )
                            continue
                        if status == "ok":
                            finalize(task, STATUS_OK, "", worker.id,
                                     seconds=seconds, value=payload)
                        else:
                            finalize(task, STATUS_ERROR, payload, worker.id,
                                     seconds=seconds)
                        continue
                    if worker.current is None:
                        continue
                    if not worker.process.is_alive():
                        made_progress = True
                        task, worker.current = worker.current, None
                        exitcode = worker.process.exitcode
                        pool.remove(worker)
                        worker.kill()
                        fail_or_retry(
                            task, STATUS_CRASHED,
                            f"worker process died (exit code {exitcode})",
                            worker.id,
                        )
                    elif worker.overdue(self.timeout):
                        made_progress = True
                        task, worker.current = worker.current, None
                        pool.remove(worker)
                        worker.kill()
                        fail_or_retry(
                            task, STATUS_TIMEOUT,
                            f"task exceeded the {self.timeout}s timeout",
                            worker.id,
                        )
                # keep the pool staffed while queued work exceeds idle hands
                idle = sum(1 for w in pool if w.current is None)
                if not init_broken:
                    while (pending and len(pool) < self.workers
                           and len(pending) > idle):
                        pool.append(spawn())
                        idle += 1
                elif not pool and pending:
                    # every worker failed to initialize: nothing can run
                    while pending:
                        task = pending.popleft()
                        attempts[task.index] += 1
                        finalize(
                            task, STATUS_ERROR,
                            "worker initializer failed; see earlier events",
                            -1,
                        )
                if not made_progress:
                    _time.sleep(_POLL_SECONDS)
        finally:
            for worker in pool:
                worker.shutdown()
        return [outcomes[task.index] for task in tasks]

    # ------------------------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                event.kind, key=event.key, done=event.done,
                total=event.total, attempts=event.attempts,
                seconds=event.seconds, level=event.level,
            )
        if self.progress is not None:
            self.progress(event)

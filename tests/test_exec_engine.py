"""Unit and fault-injection tests for the ``repro.exec`` engine.

Task functions live at module top level so the parallel path can pickle
them by reference into worker processes.
"""

import os
import time

import pytest

from repro.exec import (
    ENGINE_FINISH,
    ENGINE_START,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TASK_DONE,
    TASK_ERROR,
    TASK_RETRY,
    ExecutionEngine,
    ProgressEvent,
    SweepMetrics,
    Task,
    format_progress_line,
)

_INIT_STATE = {"ready": False}


def _double(x):
    return x * 2


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _raise_value_error(x):
    raise ValueError(f"injected failure for {x}")


def _hang_forever(_):
    time.sleep(300)


def _exit_hard(_):
    os._exit(13)


def _crash_once_then_succeed(marker_path):
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempt 1")
        os._exit(11)
    return "recovered"


def _needs_init(x):
    if not _INIT_STATE["ready"]:
        raise RuntimeError("initializer did not run")
    return x


def _set_ready():
    _INIT_STATE["ready"] = True


def _broken_initializer():
    raise RuntimeError("cannot initialize")


def make_tasks(fn, values):
    return [Task(index=i, key=f"t{i}", fn=fn, args=(v,))
            for i, v in enumerate(values)]


class TestSerialPath:
    def test_results_in_order(self):
        engine = ExecutionEngine(workers=1)
        outcomes = engine.run(make_tasks(_double, range(6)))
        assert [o.value for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.status == STATUS_OK for o in outcomes)

    def test_exception_degrades_to_error_outcome(self):
        engine = ExecutionEngine(workers=1)
        tasks = [
            Task(0, "good", _double, (1,)),
            Task(1, "bad", _raise_value_error, (7,)),
            Task(2, "alsogood", _double, (2,)),
        ]
        outcomes = engine.run(tasks)
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK
        ]
        assert "injected failure for 7" in outcomes[1].error

    def test_initializer_runs_in_process(self):
        _INIT_STATE["ready"] = False
        engine = ExecutionEngine(workers=1, initializer=_set_ready)
        outcomes = engine.run(make_tasks(_needs_init, [5]))
        assert outcomes[0].value == 5

    def test_empty_task_list(self):
        assert ExecutionEngine(workers=1).run([]) == []
        assert ExecutionEngine(workers=3).run([]) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            ExecutionEngine(retries=-1)
        with pytest.raises(ValueError):
            ExecutionEngine(timeout=0)
        with pytest.raises(ValueError):
            ExecutionEngine().run([Task(0, "a", _double, (1,)),
                                   Task(0, "b", _double, (2,))])


class TestParallelPath:
    def test_merge_order_is_task_order_not_completion_order(self):
        # earlier tasks sleep longer, so completion order is reversed
        delays = [0.4, 0.3, 0.2, 0.1, 0.0]
        tasks = [
            Task(index=i, key=f"t{i}", fn=_sleep_then_return, args=(d, i))
            for i, d in enumerate(delays)
        ]
        outcomes = ExecutionEngine(workers=4).run(tasks)
        assert [o.value for o in outcomes] == [0, 1, 2, 3, 4]

    def test_initializer_runs_in_every_worker(self):
        _INIT_STATE["ready"] = False  # parent state must not leak in
        engine = ExecutionEngine(workers=2, initializer=_set_ready)
        outcomes = engine.run(make_tasks(_needs_init, range(4)))
        assert [o.value for o in outcomes] == [0, 1, 2, 3]

    def test_exception_in_worker_keeps_sweep_alive(self):
        tasks = make_tasks(_double, range(5))
        tasks[2] = Task(index=2, key="t2", fn=_raise_value_error, args=(2,))
        outcomes = ExecutionEngine(workers=3).run(tasks)
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_OK
        ]
        assert outcomes[2].error


class TestFaultInjection:
    def test_hung_task_times_out_and_survives(self):
        events = []
        engine = ExecutionEngine(
            workers=2, timeout=0.5, retries=1, progress=events.append
        )
        tasks = [
            Task(0, "hung", _hang_forever, (None,)),
            Task(1, "quick", _double, (21,)),
        ]
        started = time.perf_counter()
        outcomes = engine.run(tasks)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, "a hung worker must never stall the sweep"
        assert outcomes[0].status == STATUS_TIMEOUT
        assert outcomes[0].attempts == 2  # original + one retry
        assert outcomes[1].status == STATUS_OK
        warnings = [e for e in events if e.level == "warning"]
        assert any(e.kind == TASK_RETRY for e in warnings)
        assert any(e.kind == TASK_ERROR and e.key == "hung"
                   for e in warnings)

    def test_crashed_worker_yields_error_outcome_not_lost_task(self):
        events = []
        engine = ExecutionEngine(workers=2, retries=1,
                                 progress=events.append)
        tasks = [
            Task(0, "boom", _exit_hard, (None,)),
            Task(1, "ok1", _double, (1,)),
            Task(2, "ok2", _double, (2,)),
        ]
        outcomes = engine.run(tasks)
        assert len(outcomes) == 3, "every task gets exactly one outcome"
        assert outcomes[0].status == STATUS_CRASHED
        assert "exit code" in outcomes[0].error
        assert [o.value for o in outcomes[1:]] == [2, 4]
        assert any(e.kind == TASK_RETRY and e.level == "warning"
                   for e in events)

    def test_crash_retry_can_recover(self, tmp_path):
        marker = str(tmp_path / "attempted")
        engine = ExecutionEngine(workers=2, retries=2)
        outcomes = engine.run(
            [Task(0, "flaky", _crash_once_then_succeed, (marker,))]
        )
        assert outcomes[0].status == STATUS_OK
        assert outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2

    def test_zero_retries_fails_fast(self):
        engine = ExecutionEngine(workers=2, retries=0, timeout=0.5)
        outcomes = engine.run([
            Task(0, "hung", _hang_forever, (None,)),
            Task(1, "fine", _double, (3,)),
        ])
        assert outcomes[0].status == STATUS_TIMEOUT
        assert outcomes[0].attempts == 1
        assert outcomes[1].value == 6

    def test_broken_initializer_degrades_to_error_outcomes(self):
        engine = ExecutionEngine(
            workers=2, retries=0, initializer=_broken_initializer
        )
        outcomes = engine.run(make_tasks(_double, range(3)))
        assert len(outcomes) == 3
        assert all(not o.ok for o in outcomes)


class TestProgressStream:
    def test_event_sequence_and_counts(self):
        events = []
        engine = ExecutionEngine(workers=1, progress=events.append)
        engine.run(make_tasks(_double, range(3)))
        kinds = [e.kind for e in events]
        assert kinds[0] == ENGINE_START
        assert kinds[-1] == ENGINE_FINISH
        done = [e for e in events if e.kind == TASK_DONE]
        assert [e.done for e in done] == [1, 2, 3]
        assert all(e.total == 3 for e in done)

    def test_metrics_aggregation(self):
        events = []
        metrics = SweepMetrics(total=2)
        engine = ExecutionEngine(workers=1, progress=events.append)
        engine.run([
            Task(0, "good", _double, (1,)),
            Task(1, "bad", _raise_value_error, (0,)),
        ])
        for event in events:
            metrics.observe_event(event)
        assert metrics.done == 2
        assert metrics.ok == 1
        assert metrics.errors == 1
        assert "1 error(s)" in metrics.summary()

    def test_format_progress_line(self):
        metrics = SweepMetrics(total=4, done=2, cache_hits=3, cache_misses=1)
        event = ProgressEvent(
            kind=TASK_DONE, done=2, total=4, key="gpt-4o/verilog/counter8",
            attempts=2, seconds=0.25,
        )
        line = format_progress_line(event, metrics)
        assert "[2/4]" in line
        assert "gpt-4o/verilog/counter8" in line
        assert "attempt 2" in line
        assert "cache 75%" in line

    def test_format_progress_line_without_details(self):
        event = ProgressEvent(kind=TASK_DONE, done=1, total=3, key="a/b/c")
        line = format_progress_line(event, SweepMetrics(total=3))
        assert line == "[1/3]  task-done  a/b/c"

    def test_format_progress_line_flags_warnings_with_the_last_line(self):
        event = ProgressEvent(
            kind=TASK_ERROR, done=1, total=1, key="a/b/c",
            level="warning", message="Traceback ...\n" + "E" * 100,
        )
        line = format_progress_line(event, SweepMetrics(total=1))
        assert line == "[1/1]! task-error a/b/c (" + "E" * 80 + ")"

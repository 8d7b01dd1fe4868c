"""Tests for the event bus, trace schema validation, and trace summaries.

The acceptance-level check lives here: a recorded sweep trace, summarized
offline, must agree with the live ``SweepMetrics`` the runner aggregated
(task counts, cache hit rate, modeled stage latency) and with the
``ConfigResult`` per-config mean loop iterations — for both a serial and a
``workers=4`` sweep.
"""

import pytest

from repro.eval.runner import ExperimentRunner
from repro.evalsuite.suite import build_suite
from repro.exec.progress import (
    ENGINE_FINISH,
    ENGINE_START,
    TASK_DONE,
    ProgressEvent,
    SweepMetrics,
    attach_metrics,
    progress_adapter,
)
from repro.eda.toolchain import Language
from repro.llm.profiles import CLAUDE_35_SONNET, GPT_4O
from repro.obs import (
    EventBus,
    get_tracer,
    render_trace_summary,
    set_tracer,
    summarize_records,
    summarize_trace,
    validate_record,
)

PROBLEM_COUNT = 6


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("first", e)))
        bus.subscribe(lambda e: seen.append(("second", e)))
        bus.publish("x")
        assert seen == [("first", "x"), ("second", "x")]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        subscriber = bus.subscribe(seen.append)
        assert len(bus) == 1
        bus.unsubscribe(subscriber)
        bus.publish("x")
        assert seen == []
        bus.unsubscribe(subscriber)  # double removal is harmless

    def test_attach_metrics_folds_events(self):
        bus = EventBus()
        metrics = attach_metrics(bus, SweepMetrics(total=2))
        bus.publish(ProgressEvent(kind=TASK_DONE, done=1, total=2))
        bus.publish(ProgressEvent(kind=TASK_DONE, done=2, total=2))
        assert metrics.done == 2
        assert metrics.ok == 2

    def test_progress_adapter_sees_updated_metrics(self):
        bus = EventBus()
        metrics = attach_metrics(bus, SweepMetrics(total=1))
        observed = []
        bus.subscribe(progress_adapter(
            lambda event, m: observed.append((event.kind, m.done)), metrics
        ))
        bus.publish(ProgressEvent(kind=TASK_DONE, done=1, total=1))
        # metrics subscriber ran first, so the callback saw done=1
        assert observed == [(TASK_DONE, 1)]


class TestValidateRecord:
    def test_rejects_unknown_type(self):
        assert validate_record({"type": "mystery"}) != []
        assert validate_record("not a dict") != []

    def test_rejects_non_scalar_attr(self):
        record = {
            "type": "event", "name": "e", "pid": 1, "seq": 0,
            "time": 1.0, "span_id": None, "attrs": {"bad": [1, 2]},
        }
        errors = validate_record(record)
        assert any("non-scalar" in e for e in errors)

    def test_rejects_span_end_before_start(self):
        record = {
            "type": "span", "name": "s", "span_id": "a-1", "parent_id": None,
            "pid": 1, "seq": 0, "start": 10.0, "end": 5.0,
            "wall_seconds": 0.0, "cpu_seconds": 0.0, "status": "ok",
            "error": "", "attrs": {},
        }
        errors = validate_record(record)
        assert any("precedes" in e for e in errors)

    def test_rejects_bad_histogram_counts(self):
        record = {
            "type": "metric", "kind": "histogram", "name": "h", "pid": 1,
            "time": 1.0, "buckets": [1.0, 2.0], "counts": [0, 1],
            "sum": 0.0, "count": 1,
        }
        errors = validate_record(record)
        assert any("counts" in e for e in errors)

    def test_accepts_valid_meta(self):
        record = {
            "type": "meta", "version": 1, "pid": 1, "time": 0.0, "attrs": {},
        }
        assert validate_record(record) == []


def traced_sweep(tmp_path, workers):
    path = tmp_path / f"sweep-{workers}.jsonl"
    runner = ExperimentRunner(
        suite=build_suite().head(PROBLEM_COUNT),
        workers=workers,
        trace_path=str(path),
    )
    results = runner.run_all(
        profiles=[GPT_4O, CLAUDE_35_SONNET], languages=(Language.VERILOG,)
    )
    return runner, results, summarize_trace(path)


class TestSummaryMatchesLiveMetrics:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_trace_summary_agrees_with_sweep_metrics(self, tmp_path, workers):
        runner, results, summary = traced_sweep(tmp_path, workers)
        metrics = runner.metrics
        assert summary.tasks_total == metrics.total
        assert summary.tasks_done == metrics.done
        assert summary.tasks_ok == metrics.ok
        assert summary.tasks_error == metrics.errors
        assert summary.task_retries == metrics.retries
        assert summary.cache_hits == metrics.cache_hits
        assert summary.cache_misses == metrics.cache_misses
        assert summary.cache_hit_rate == metrics.cache_hit_rate
        for stage in ("generation", "syntax", "functional"):
            assert summary.stage_seconds[stage] == pytest.approx(
                metrics.stage_seconds[stage]
            )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_per_config_iterations_match_config_result(
        self, tmp_path, workers
    ):
        _, results, summary = traced_sweep(tmp_path, workers)
        by_key = {c.key: c for c in summary.configs}
        assert len(by_key) == len(results)
        for result in results:
            config = by_key[f"{result.model}/{result.language.value}"]
            assert config.runs == len(result.evaluated)
            assert config.errors == result.error_count
            assert config.mean_syntax_iterations == pytest.approx(
                result.mean_syntax_iterations
            )
            assert config.mean_functional_iterations == pytest.approx(
                result.mean_functional_iterations
            )

    def test_summary_counts_processes_and_records(self, tmp_path):
        _, _, summary = traced_sweep(tmp_path, 4)
        assert summary.process_count > 1
        assert summary.record_count == (
            summary.span_count + summary.event_count
            + summary.metric_count + 1  # + the meta header
        )
        assert summary.compile_count > 0
        assert summary.simulate_count > 0
        assert summary.prompt_tokens > 0


class TestRenderTraceSummary:
    def test_report_mentions_the_key_numbers(self, tmp_path):
        _, _, summary = traced_sweep(tmp_path, 1)
        text = render_trace_summary(summary)
        assert "tasks:" in text
        assert "hit rate" in text
        assert "gpt-4o/verilog" in text
        assert "claude-3.5-sonnet/verilog" in text

    def test_empty_records_render(self):
        text = render_trace_summary(summarize_records([]))
        assert "0" in text

    def test_scheduler_counters_surface_in_summary(self):
        # metric records are cumulative snapshots: the last one per process
        # wins, and processes sum
        def metric(pid, time, name, value):
            return {
                "type": "metric", "pid": pid, "time": time,
                "kind": "counter", "name": name, "value": value,
            }

        records = [
            metric(1, 1.0, "sim.activations", 10),
            metric(1, 2.0, "sim.activations", 25),
            metric(2, 1.0, "sim.activations", 5),
            metric(1, 2.0, "sim.delta_cycles", 40),
        ]
        summary = summarize_records(records)
        assert summary.sim_activations == 30
        assert summary.sim_delta_cycles == 40
        text = render_trace_summary(summary)
        assert "simulator: 30 activation(s), 40 delta cycle(s)\n" in text

    def test_batch_counters_surface_in_summary(self):
        def metric(pid, time, name, value):
            return {
                "type": "metric", "pid": pid, "time": time,
                "kind": "counter", "name": name, "value": value,
            }

        records = [
            metric(1, 1.0, "sim.batch_calls", 2),
            metric(1, 2.0, "sim.batch_calls", 3),
            metric(2, 1.0, "sim.batch_vectors", 1024),
            metric(1, 1.0, "sim.batch_vectors", 512),
            metric(1, 1.0, "sim.batch_demotions", 1),
        ]
        summary = summarize_records(records)
        assert summary.sim_batch_calls == 3
        assert summary.sim_batch_vectors == 1536
        assert summary.sim_batch_demotions == 1
        text = render_trace_summary(summary)
        assert "batch tier: 3 call(s), 1536 vector(s), 1 demotion(s)" in text

    def test_store_counters_surface_in_summary(self):
        def metric(pid, time, name, value, kind="counter"):
            return {
                "type": "metric", "pid": pid, "time": time,
                "kind": kind, "name": name, "value": value,
            }

        records = [
            metric(1, 1.0, "toolchain.store.parse.hit", 2),
            metric(1, 2.0, "toolchain.store.parse.hit", 6),
            metric(2, 2.0, "toolchain.store.parse.hit", 2),
            metric(1, 2.0, "toolchain.store.parse.miss", 4),
            metric(2, 2.0, "toolchain.store.parse.evict", 1),
            metric(1, 2.0, "toolchain.store.simulate.miss", 3),
            metric(1, 2.0, "toolchain.store.entries", 9, kind="gauge"),
        ]
        summary = summarize_records(records)
        assert summary.store == {
            "parse": {"hit": 8, "miss": 4, "evict": 1},
            "simulate": {"hit": 0, "miss": 3, "evict": 0},
        }
        text = render_trace_summary(summary)
        assert (
            "store hit rate: parse 66.7% (8/12, 1 evicted), "
            "simulate 0.0% (0/3, 0 evicted)"
        ) in text
        empty = render_trace_summary(summarize_records([]))
        assert "store hit rate: no lookups recorded" in empty


class TestSummarizeDegenerateInputs:
    def test_no_records(self):
        summary = summarize_records([])
        assert summary.record_count == 0
        assert summary.cache_hit_rate == 0.0
        assert summary.configs == []

    def test_task_span_with_error_status_counts_as_error(self):
        span = {
            "type": "span", "name": "task.problem", "span_id": "a-1",
            "parent_id": None, "pid": 1, "seq": 0, "start": 0.0, "end": 1.0,
            "wall_seconds": 1.0, "cpu_seconds": 0.5, "status": "error",
            "error": "boom",
            "attrs": {"model": "m", "language": "verilog", "problem": "p"},
        }
        summary = summarize_records([span])
        (config,) = summary.configs
        assert config.errors == 1
        assert config.runs == 0
        assert config.mean_syntax_iterations == 0.0


class TestAgentBreakdown:
    """--by-agent: wall time attributed to code/review/verification."""

    @staticmethod
    def span(name, span_id, parent_id=None, *, wall=1.0, attrs=None):
        return {
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "pid": 1, "seq": 0, "start": 0.0,
            "end": wall, "wall_seconds": wall, "cpu_seconds": wall,
            "attrs": attrs or {}, "status": "ok",
        }

    def agent_trace(self):
        task_attrs = {"model": "gpt-4o", "language": "verilog"}
        return [
            self.span("task.problem", "t1", attrs=task_attrs),
            self.span("pipeline.run", "p1", "t1", wall=0.9),
            self.span("pipeline.generate", "g1", "p1", wall=0.2),
            self.span("loop.syntax", "s1", "p1", wall=0.3),
            # nested iteration must NOT be double counted
            self.span("loop.syntax.iteration", "si1", "s1", wall=0.25),
            self.span("loop.functional", "f1", "p1", wall=0.4),
            self.span("pipeline.baseline", "b1", "t1", wall=0.1),
        ]

    def test_maps_spans_to_agents_via_ancestor_walk(self):
        from repro.obs import summarize_agents

        breakdown = summarize_agents(self.agent_trace())
        assert breakdown.seconds["code"] == pytest.approx(0.3)  # gen + base
        assert breakdown.seconds["review"] == pytest.approx(0.3)
        assert breakdown.seconds["verification"] == pytest.approx(0.4)
        assert breakdown.spans == {
            "code": 2, "review": 1, "verification": 1,
        }
        assert breakdown.configs == {
            "gpt-4o/verilog": {
                "code": pytest.approx(0.3),
                "review": pytest.approx(0.3),
                "verification": pytest.approx(0.4),
            }
        }
        assert breakdown.total_seconds == pytest.approx(1.0)

    def test_orphan_agent_span_attributes_to_unknown_config(self):
        from repro.obs import summarize_agents

        records = [self.span("loop.syntax", "s1", "ghost", wall=0.5)]
        breakdown = summarize_agents(records)
        assert breakdown.configs == {"?": {
            "code": 0.0, "review": 0.5, "verification": 0.0,
        }}

    def test_render_lists_agents_and_configs(self):
        from repro.obs import render_agent_breakdown, summarize_agents

        text = render_agent_breakdown(summarize_agents(self.agent_trace()))
        assert "agent breakdown" in text
        assert "code" in text and "review" in text
        assert "verification" in text
        assert "gpt-4o/verilog" in text
        assert "40.0%" in text  # verification share of the total

    def test_real_trace_attributes_all_agent_spans(self, tmp_path):
        from repro.obs import read_trace, summarize_agents

        runner, _, _ = traced_sweep(tmp_path, workers=1)
        breakdown = summarize_agents(read_trace(runner.trace_path))
        # every config in the sweep got all three agents attributed
        assert breakdown.configs
        assert "?" not in breakdown.configs
        for per_config in breakdown.configs.values():
            assert per_config["code"] > 0.0
        assert breakdown.total_seconds > 0.0

"""Tests for sweep metrics, trace schema validation, and trace summaries.

The acceptance-level check lives here: a recorded sweep trace, summarized
offline, must agree with the live ``SweepMetrics`` the runner aggregated
(task counts, cache hit rate, modeled stage latency) and with the
``ConfigResult`` per-config mean loop iterations — for both a serial and a
``workers=4`` sweep.
"""

import pytest

from repro.eval.runner import ExperimentRunner
from repro.evalsuite.suite import build_suite
from repro.eval import runner as runner_module
from repro.exec.progress import (
    ENGINE_FINISH,
    ENGINE_START,
    TASK_DONE,
    TASK_ERROR,
    TASK_RETRY,
    ProgressEvent,
    SweepMetrics,
)
from repro.eda.toolchain import Language
from repro.llm.profiles import CLAUDE_35_SONNET, GPT_4O
from repro.obs import (
    TRACE_RECORD_SCHEMA,
    MemorySink,
    Tracer,
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


class TestSweepMetrics:
    def test_observe_event_folds_events(self):
        metrics = SweepMetrics(total=2)
        metrics.observe_event(ProgressEvent(kind=TASK_DONE, done=1, total=2))
        metrics.observe_event(ProgressEvent(kind=TASK_DONE, done=2, total=2))
        assert metrics.done == 2
        assert metrics.ok == 2

    def test_task_error_counts_a_finished_failure(self):
        metrics = SweepMetrics(total=2)
        metrics.observe_event(ProgressEvent(kind=TASK_DONE, done=1, total=2))
        metrics.observe_event(ProgressEvent(kind=TASK_ERROR, done=2, total=2))
        assert (metrics.done, metrics.ok, metrics.errors) == (2, 1, 1)

    def test_retry_counts_without_finishing_a_task(self):
        metrics = SweepMetrics(total=1)
        metrics.observe_event(ProgressEvent(kind=TASK_RETRY, key="a/b/c"))
        assert metrics.retries == 1
        assert (metrics.done, metrics.ok, metrics.errors) == (0, 0, 0)

    def test_engine_start_and_finish_leave_the_counters_alone(self):
        metrics = SweepMetrics(total=3)
        metrics.observe_event(ProgressEvent(kind=ENGINE_START, total=3))
        metrics.observe_event(
            ProgressEvent(kind=ENGINE_FINISH, done=3, total=3)
        )
        assert metrics == SweepMetrics(total=3)

    def test_task_done_sums_wall_seconds(self):
        metrics = SweepMetrics(total=2)
        for done, seconds in ((1, 0.25), (2, 0.5)):
            metrics.observe_event(ProgressEvent(
                kind=TASK_DONE, done=done, total=2, seconds=seconds,
            ))
        assert metrics.wall_seconds == 0.75

    @pytest.mark.parametrize("retries, text", [
        (0, "0 retries"), (1, "1 retry"), (2, "2 retries"),
    ])
    def test_summary_counts_retries(self, retries, text):
        summary = SweepMetrics(total=1, retries=retries).summary()
        assert summary == f"0/1 tasks; 0 error(s); {text}"

    def test_summary_reports_the_cache_only_after_lookups(self):
        assert "cache" not in SweepMetrics(total=1).summary()
        metrics = SweepMetrics(total=1, cache_hits=1, cache_misses=3)
        assert "; cache 25.0% hit" in metrics.summary()

    def test_summary_lists_only_the_stages_that_ran(self):
        metrics = SweepMetrics(total=1)
        metrics.stage_seconds["syntax"] = 1.25
        assert metrics.summary().endswith("; modeled latency: syntax 1.2s")

    def test_runner_callback_sees_the_event_and_payload_folded(self):
        """The user's ``(event, metrics)`` callback runs last: by then the
        metrics hold the event itself and its task's cache counters."""
        seen = {"calls": 0, "hits": 0, "misses": 0}

        def progress(event, metrics):
            if event.kind != TASK_DONE:
                return
            seen["calls"] += 1
            delta = event.outcome.value.cache_delta
            seen["hits"] += delta.hits
            seen["misses"] += delta.misses
            assert metrics.done == event.done
            assert metrics.ok == event.done
            assert metrics.cache_hits == seen["hits"]
            assert metrics.cache_misses == seen["misses"]

        runner = ExperimentRunner(
            suite=build_suite().head(2), progress=progress
        )
        runner.run_all()
        assert seen["calls"] == runner.metrics.total == 12
        assert seen["hits"] > 0 and seen["misses"] > 0

    def test_runner_callback_sees_the_modeled_latency_folded(self):
        stages = {"generation": 0.0, "syntax": 0.0, "functional": 0.0}

        def progress(event, metrics):
            if event.kind != TASK_DONE:
                return
            latency = event.outcome.value.record.aivril_latency
            stages["generation"] += latency.generation_llm
            stages["syntax"] += latency.syntax_loop
            stages["functional"] += latency.functional_loop
            assert metrics.stage_seconds == stages

        runner = ExperimentRunner(
            suite=build_suite().head(1), progress=progress
        )
        runner.run_all()
        assert runner.metrics.stage_seconds == stages
        assert stages["generation"] > 0

    def test_runner_callback_sees_task_errors_folded(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("task exploded")

        monkeypatch.setattr(runner_module, "_task_entry", broken)
        errors = []

        def progress(event, metrics):
            if event.kind != TASK_ERROR:
                return
            errors.append(event.key)
            assert metrics.errors == len(errors)
            assert metrics.done == event.done
            assert metrics.ok == 0

        runner = ExperimentRunner(
            suite=build_suite().head(1), progress=progress
        )
        results = runner.run_all()
        assert len(errors) == runner.metrics.total == 6
        assert all(result.error_count == 1 for result in results)

    def test_runner_callback_runs_after_the_trace_event(self):
        """With tracing on, the user's callback already finds its event as
        the trace's newest record."""
        sink = MemorySink()
        set_tracer(Tracer(sink))
        kinds = []

        def progress(event, metrics):
            kinds.append(event.kind)
            record = sink.records[-1]
            assert record["type"] == "event"
            assert record["name"] == event.kind
            assert record["attrs"]["key"] == event.key
            assert record["attrs"]["done"] == event.done

        runner = ExperimentRunner(
            suite=build_suite().head(1), progress=progress
        )
        runner.run_all()
        assert kinds[0] == ENGINE_START
        assert kinds[-1] == ENGINE_FINISH
        assert kinds.count(TASK_DONE) == runner.metrics.total == 6

    def test_runner_callback_brackets_the_sweep(self):
        """``engine-start`` arrives with the total already known and
        ``engine-finish`` after every task is folded."""
        seen = []

        def progress(event, metrics):
            if event.kind in (ENGINE_START, ENGINE_FINISH):
                seen.append((event.kind, metrics.total, metrics.done))

        runner = ExperimentRunner(
            suite=build_suite().head(1), progress=progress
        )
        runner.run_all()
        assert seen == [(ENGINE_START, 6, 0), (ENGINE_FINISH, 6, 6)]


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

    def test_rejects_gauge_record(self):
        record = {
            "type": "metric", "kind": "gauge", "name": "g", "pid": 1,
            "time": 1.0, "value": 3.0,
        }
        assert validate_record(record) == ["metric.kind must be counter"]

    def test_rejects_histogram_record(self):
        record = {
            "type": "metric", "kind": "histogram", "name": "h", "pid": 1,
            "time": 1.0, "buckets": [1.0, 2.0], "counts": [0, 1, 0],
            "sum": 1.5, "count": 1, "min": 1.5, "max": 1.5,
        }
        errors = validate_record(record)
        assert "metric.kind must be counter" in errors
        assert "metric.value must be a non-negative number" in errors

    def test_rejects_negative_counter(self):
        record = {
            "type": "metric", "kind": "counter", "name": "c", "pid": 1,
            "time": 1.0, "value": -1,
        }
        assert validate_record(record) == [
            "metric.value must be a non-negative number"
        ]

    @pytest.mark.parametrize(
        "value", [0, 7, 2.5], ids=["zero", "int", "float"]
    )
    def test_accepts_counter_values(self, value):
        record = {
            "type": "metric", "kind": "counter", "name": "c", "pid": 1,
            "time": 1.0, "value": value,
        }
        assert validate_record(record) == []

    @pytest.mark.parametrize("value", [None, "3", True],
                             ids=["missing", "string", "boolean"])
    def test_rejects_non_number_counter_value(self, value):
        record = {
            "type": "metric", "kind": "counter", "name": "c", "pid": 1,
            "time": 1.0,
        }
        if value is not None:
            record["value"] = value
        assert validate_record(record) == [
            "metric.value must be a non-negative number"
        ]

    def test_schema_metric_branch_is_counter_only(self):
        (branch,) = [
            branch for branch in TRACE_RECORD_SCHEMA["oneOf"]
            if branch["properties"]["type"] == {"const": "metric"}
        ]
        assert branch["properties"]["kind"] == {"const": "counter"}
        assert branch["properties"]["value"] == {
            "type": "number", "minimum": 0
        }
        assert set(branch["required"]) == set(branch["properties"])

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
        # a sweep carries no fuzz op counters, so no per-op table
        assert summary.op_classes == {}
        assert "per-op" not in text

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
        ]
        summary = summarize_records(records)
        assert summary.sim_batch_calls == 3
        assert summary.sim_batch_vectors == 1536
        text = render_trace_summary(summary)
        assert "batch tier: 3 call(s), 1536 vector(s)\n" in text

    def test_store_counters_surface_in_summary(self):
        def metric(pid, time, name, value):
            return {
                "type": "metric", "pid": pid, "time": time,
                "kind": "counter", "name": name, "value": value,
            }

        records = [
            metric(1, 1.0, "toolchain.store.parse.hit", 2),
            metric(1, 2.0, "toolchain.store.parse.hit", 6),
            metric(2, 2.0, "toolchain.store.parse.hit", 2),
            metric(1, 2.0, "toolchain.store.parse.miss", 4),
            metric(2, 2.0, "toolchain.store.parse.evict", 1),
            metric(1, 2.0, "toolchain.store.simulate.miss", 3),
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


class TestOpVerdictTable:
    """A fuzz trace's ``qa.fuzz.op.<kind>.<class>`` counters become the
    summary's per-op verdict table."""

    @staticmethod
    def counter(pid, name, value):
        return {
            "type": "metric", "pid": pid, "time": 1.0,
            "kind": "counter", "name": name, "value": value,
        }

    def test_op_counters_merge_across_processes(self):
        summary = summarize_records([
            self.counter(1, "qa.fuzz.op.add.ok", 2),
            self.counter(2, "qa.fuzz.op.add.ok", 3),
            self.counter(2, "qa.fuzz.op.add.sim_mismatch", 1),
            self.counter(1, "qa.fuzz.op.mux.ok", 4),
        ])
        assert summary.op_classes == {
            "add": {"ok": 5, "sim_mismatch": 1},
            "mux": {"ok": 4},
        }

    def test_table_lists_ops_and_verdicts_in_sorted_order(self):
        text = render_trace_summary(summarize_records([
            self.counter(1, "qa.fuzz.op.xor.ok", 1),
            self.counter(1, "qa.fuzz.op.add.ok", 6),
            self.counter(1, "qa.fuzz.op.add.crash", 2),
        ]))
        assert text.endswith(
            "\n\n  per-op verdicts (programs using each op kind):\n"
            "    add        crash=2, ok=6\n"
            "    xor        ok=1"
        )

    def test_campaign_totals_stay_out_of_the_table(self):
        summary = summarize_records([
            self.counter(1, "qa.fuzz.programs", 3),
            self.counter(1, "qa.fuzz.divergences", 0),
            self.counter(1, "toolchain.store.parse.hit", 2),
        ])
        assert summary.op_classes == {}
        assert summary.store == {"parse": {"hit": 2, "miss": 0, "evict": 0}}
        assert "per-op" not in render_trace_summary(summary)


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


class TestIterationPopulation:
    """Iteration mean, p50 and p90 describe one population: the runs that
    entered the loop and converged (``ConfigResult``'s)."""

    @staticmethod
    def task_span(seq, syntax_iterations, syntax_ok):
        return {
            "type": "span", "name": "task.problem", "span_id": f"1-{seq}",
            "parent_id": None, "pid": 1, "seq": seq, "start": 0.0,
            "end": 1.0, "wall_seconds": 1.0, "cpu_seconds": 1.0,
            "status": "ok", "error": "",
            "attrs": {
                "model": "m", "language": "verilog",
                "syntax_iterations": syntax_iterations,
                "aivril_syntax_ok": syntax_ok,
                "functional_iterations": 0, "aivril_functional_ok": True,
            },
        }

    def test_percentiles_cover_the_converged_runs_only(self):
        records = [
            self.task_span(0, 0, True),  # never entered the loop
            self.task_span(1, 2, True),  # converged
            self.task_span(2, 4, False),  # ran out of iterations
        ]
        (config,) = summarize_records(records).configs
        assert config.mean_syntax_iterations == 2.0
        assert config.p50_syntax_iterations == 2.0
        assert config.p90_syntax_iterations == 2.0
        assert config.p90_functional_iterations == 0.0

    def test_header_names_the_population(self):
        text = render_trace_summary(
            summarize_records([self.task_span(0, 2, True)])
        )
        assert "over the runs that entered the loop and converged" in text
        assert "2.00/2.0/2.0" in text


class TestIterationTableColumns:
    """Every cell of the per-config table ends under its header label."""

    LABELS = ("runs", "err", "syn it mean/p50/p90", "fun it mean/p50/p90",
              "gen/syn/fun s per run")

    @staticmethod
    def config(**values):
        from repro.obs.summary import ConfigTraceSummary

        config = ConfigTraceSummary(model="gpt-4o", language="verilog",
                                    runs=12, errors=1)
        for name, value in values.items():
            setattr(config, name, value)
        return config

    def table(self, *configs):
        from repro.obs.summary import TraceSummary

        text = render_trace_summary(TraceSummary(configs=list(configs)))
        lines = text.splitlines()
        header_at = next(
            index for index, line in enumerate(lines)
            if line.lstrip().startswith("config")
        )
        return lines[header_at], lines[header_at + 2:]

    def test_cells_end_under_their_labels(self):
        wide = self.config(
            mean_syntax_iterations=8.88, p50_syntax_iterations=18.0,
            p90_syntax_iterations=0.5, mean_functional_iterations=10.5,
            p50_functional_iterations=12.0, p90_functional_iterations=14.0,
            stage_seconds_per_run={
                "generation": 8.88, "syntax": 18.24, "functional": 0.51,
            },
        )
        header, rows = self.table(self.config(), wide)
        label_ends = [header.index(label) + len(label) for label in self.LABELS]
        assert len(rows) == 2
        for row in rows:
            cells = row.split()[1:]
            assert len(cells) == len(self.LABELS)
            cell_ends = []
            position = len(row.split()[0]) + 2
            for cell in cells:
                position = row.index(cell, position) + len(cell)
                cell_ends.append(position)
            assert cell_ends == label_ends, (header, row)
        assert "8.88/18.24/0.51" in rows[1]


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

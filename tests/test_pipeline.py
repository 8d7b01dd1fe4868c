"""End-to-end tests of the AIVRIL2 pipeline."""

import hashlib
import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Aivril2Pipeline, run_baseline
from repro.eda.toolchain import Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.evalsuite.validate import run_golden_tb
from repro.llm.profiles import CLAUDE_35_SONNET, LLAMA3_70B, PROFILES
from repro.llm.synthetic import SyntheticDesignLLM
from repro.obs import MemorySink, Tracer, get_tracer, set_tracer


@pytest.fixture(scope="module")
def suite():
    return build_suite()


def pick(plans, predicate):
    return next(pid for pid, plan in plans.items() if predicate(plan))


def make_pipeline(llm, language, **overrides):
    return Aivril2Pipeline(
        llm, Toolchain(), PipelineConfig(language=language, **overrides)
    )


class TestHappyPath:
    def test_clean_problem_converges_without_iterations(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: not p.has_syntax_defect and not p.has_functional_defect,
        )
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        assert result.converged
        assert result.syntax_iterations == 0
        assert result.functional_iterations == 0
        assert result.latency.total > 0

    def test_syntax_defect_repaired_in_assigned_cycles(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: p.has_syntax_defect
            and p.syntax_repairable
            and not p.has_functional_defect,
        )
        plan = plans[pid]
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        assert result.syntax_ok
        assert result.syntax_iterations == plan.syntax_cycles
        assert result.functional_ok

    def test_functional_defect_repaired(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: not p.has_syntax_defect
            and p.has_functional_defect
            and p.functional_repairable,
        )
        plan = plans[pid]
        problem = suite.get(pid)
        result = make_pipeline(llm, Language.VERILOG).run(problem.prompt)
        assert result.converged
        assert result.functional_iterations == plan.functional_cycles
        passed, _ = run_golden_tb(
            problem, Language.VERILOG, result.rtl, Toolchain()
        )
        assert passed

    def test_final_code_passes_golden_testbench(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VHDL)
        pid = pick(
            plans,
            lambda p: p.has_syntax_defect and p.syntax_repairable
            and not p.has_functional_defect,
        )
        problem = suite.get(pid)
        result = make_pipeline(llm, Language.VHDL).run(problem.prompt)
        assert result.converged
        passed, log = run_golden_tb(
            problem, Language.VHDL, result.rtl, Toolchain()
        )
        assert passed, log


class TestStuckModel:
    def test_unrepairable_syntax_stops_early(self, suite):
        llm = SyntheticDesignLLM(LLAMA3_70B, suite)
        plans = llm.plan(Language.VHDL)
        pid = pick(
            plans,
            lambda p: p.has_syntax_defect and not p.syntax_repairable,
        )
        result = make_pipeline(llm, Language.VHDL).run(suite.get(pid).prompt)
        assert not result.syntax_ok
        assert not result.functional_ok
        # the no-progress detector fires after one identical revision
        assert result.syntax_iterations == 1

    def test_unrepairable_functional_stops_early(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: not p.has_syntax_defect
            and p.has_functional_defect
            and not p.functional_repairable,
        )
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        assert result.syntax_ok
        assert not result.functional_ok
        assert result.functional_iterations == 1

    def test_slow_repair_runs_to_the_iteration_cap(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: not p.has_syntax_defect and p.has_functional_defect,
        )
        # every revision differs, so only the cap stops the loop: the
        # defect needs 4 rounds and the loop allows 3
        llm.override_plan(
            pid, Language.VERILOG,
            functional_repairable=True, functional_cycles=4,
        )
        pipeline = make_pipeline(
            llm, Language.VERILOG, max_functional_iterations=3
        )
        result = pipeline.run(suite.get(pid).prompt)
        assert result.syntax_ok
        assert result.functional_iterations == 3
        assert not result.functional_ok  # the final check still fails


class TestTracedIterations:
    def test_spans_carry_the_iteration_counts(self, suite):
        """A trace reads each loop's iteration count off its spans; no
        metric repeats it."""
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: p.has_syntax_defect and p.syntax_repairable
            and p.has_functional_defect and p.functional_repairable,
        )
        sink = MemorySink()
        tracer = Tracer(sink)
        previous = get_tracer()
        set_tracer(tracer)
        try:
            result = make_pipeline(llm, Language.VERILOG).run(
                suite.get(pid).prompt
            )
        finally:
            set_tracer(previous)
        assert result.converged
        assert result.syntax_iterations == plans[pid].syntax_cycles
        assert result.functional_iterations == plans[pid].functional_cycles
        spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
        assert spans["loop.syntax"]["attrs"]["iterations"] == (
            result.syntax_iterations
        )
        assert spans["loop.functional"]["attrs"]["iterations"] == (
            result.functional_iterations
        )
        run_attrs = spans["pipeline.run"]["attrs"]
        assert (
            run_attrs["syntax_iterations"], run_attrs["functional_iterations"]
        ) == (result.syntax_iterations, result.functional_iterations)
        names = [r["name"] for r in tracer.metrics.to_records()]
        assert "pipeline.runs" in names
        assert not [name for name in names if name.startswith("loop.")]


class TestConfig:
    def test_iteration_caps_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_syntax_iterations=0)

    def test_testbench_last_mode(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: not p.has_syntax_defect and not p.has_functional_defect,
        )
        pipeline = make_pipeline(llm, Language.VERILOG, testbench_first=False)
        result = pipeline.run(suite.get(pid).prompt)
        assert result.converged
        # rtl version must precede the tb version in the history
        tags = [v.tag for v in result.versions]
        assert tags.index("rtl-v1") < tags.index("tb-v1")

    def test_transcript_shows_all_three_agents(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: p.has_functional_defect and p.functional_repairable
            and not p.has_syntax_defect,
        )
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        agents = {s.agent for s in result.transcript.steps}
        assert {"CodeAgent", "ReviewAgent", "VerificationAgent"} <= agents

    def test_latency_buckets_populated(self, suite):
        llm = SyntheticDesignLLM(LLAMA3_70B, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: p.has_syntax_defect and p.syntax_repairable,
        )
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        assert result.latency.generation_llm > 0
        assert result.latency.syntax_llm > 0
        assert result.latency.syntax_tool > 0
        assert result.latency.total == pytest.approx(
            result.latency.generation_llm
            + result.latency.syntax_loop
            + result.latency.functional_loop
        )


class TestBaseline:
    def test_baseline_single_call(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        problem = suite.get("gates_and")
        calls_before = llm.call_count
        result = run_baseline(llm, problem.prompt, Language.VERILOG)
        assert llm.call_count == calls_before + 1
        assert result.rtl
        behaviour = CLAUDE_35_SONNET.for_language(Language.VERILOG)
        assert result.latency_seconds == behaviour.rtl_gen_seconds


class TestTokenAccounting:
    def test_tokens_accumulated_across_agents(self, suite):
        from repro.llm.profiles import CLAUDE_35_SONNET
        from repro.llm.synthetic import SyntheticDesignLLM
        from repro.eda.toolchain import Language

        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = pick(
            plans,
            lambda p: p.has_functional_defect and p.functional_repairable
            and not p.has_syntax_defect,
        )
        result = make_pipeline(llm, Language.VERILOG).run(suite.get(pid).prompt)
        assert result.tokens.llm_calls >= 4  # tb, rtl, analyses, fixes
        assert result.tokens.prompt_tokens > 0
        assert result.tokens.completion_tokens > 0
        assert result.tokens.total_tokens == (
            result.tokens.prompt_tokens + result.tokens.completion_tokens
        )


class _Recording:
    """An LLM client that records every conversation and answer it passes
    through, exactly as the model saw and returned it."""

    def __init__(self, llm, sink: list):
        self.llm, self.sink, self.name = llm, sink, llm.name

    def complete(self, messages):
        response = self.llm.complete(messages)
        self.sink.append([[m.role, m.content] for m in messages] + [
            response.text, response.model, repr(response.latency_seconds),
            response.prompt_tokens, response.completion_tokens,
        ])
        return response


#: sha256 over what the agents and the model see on every 7th suite
#: problem under each profile and language: the baseline's RTL and
#: latency, then each pipeline run's verdicts, iteration counts, final
#: RTL, transcript, code versions, token counts and modeled latency, then
#: every message the model received with its answer and accounting
PINNED_RUNS_SHA256 = (
    "da458cc9759bfc216cdfa8cc8dd99d0da74cd357cc1df1af772f946b24c745a3"
)


class TestPinnedRuns:
    def test_what_the_agents_see_is_pinned(self, suite):
        """Any change to a prompt, a log, a transcript step, a token count
        or a modeled latency changes this digest."""
        latencies = ("generation_llm", "syntax_llm", "syntax_tool",
                     "functional_llm", "functional_tool")
        problems = suite.problems[::7]
        digest = hashlib.sha256()
        for profile in PROFILES:
            for language in Language:
                seen: list = []
                llm = _Recording(SyntheticDesignLLM(profile, suite), seen)
                toolchain = Toolchain()
                for problem in problems:
                    baseline = run_baseline(llm, problem.prompt, language)
                    run = Aivril2Pipeline(
                        llm, toolchain, PipelineConfig(language=language)
                    ).run(problem.prompt)
                    digest.update(json.dumps([
                        problem.pid, profile.name, language.value,
                        baseline.rtl, repr(baseline.latency_seconds),
                        run.rtl, run.syntax_ok, run.functional_ok,
                        run.syntax_iterations, run.functional_iterations,
                        [[step.agent, step.kind.value, step.content]
                         for step in run.transcript.steps],
                        [run.tokens.prompt_tokens,
                         run.tokens.completion_tokens, run.tokens.llm_calls],
                        [repr(getattr(run.latency, name))
                         for name in latencies],
                        [[v.tag, v.code, v.reason] for v in run.versions],
                    ]).encode())
                digest.update(json.dumps(seen).encode())
        assert len(problems) == 23
        assert digest.hexdigest() == PINNED_RUNS_SHA256

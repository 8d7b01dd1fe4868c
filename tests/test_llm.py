"""Tests for the LLM layer: protocol, profiles, mock, synthetic model."""

import pytest

from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.llm import protocol
from repro.llm.interface import ChatMessage, LLMError, estimate_tokens
from repro.llm.mock import ScriptedLLM
from repro.llm.profiles import (
    CLAUDE_35_SONNET,
    GPT_4O,
    LLAMA3_70B,
    PROFILES,
    count_of,
    profile_for,
)
from repro.llm.synthetic import (
    WEAK_TB_CASES,
    SyntheticDesignLLM,
    build_defect_plan,
    plan_statistics,
    _cycle_sequence,
)


@pytest.fixture(scope="module")
def suite():
    return build_suite()


class TestProtocol:
    def test_spec_roundtrip(self):
        prompt = f"{protocol.TASK_RTL}\nTarget language: Verilog\n" + (
            protocol.spec_block("make an adder")
        )
        assert protocol.detect_task(prompt) == protocol.TASK_RTL
        assert protocol.parse_spec(prompt) == "make an adder"
        assert protocol.parse_language(prompt) is Language.VERILOG

    def test_vhdl_language_tag(self):
        prompt = "Target language: VHDL\n"
        assert protocol.parse_language(prompt) is Language.VHDL

    def test_missing_parts_return_none(self):
        assert protocol.detect_task("hello") is None
        assert protocol.parse_spec("no fences") is None
        assert protocol.parse_language("nothing") is None

    def test_code_and_log_blocks(self):
        text = protocol.code_block("module m; endmodule")
        assert protocol.parse_code(text) == "module m; endmodule"
        log = protocol.log_block("ERROR: bad")
        assert protocol.parse_log(log) == "ERROR: bad"


class TestInterface:
    def test_chat_message_role_validated(self):
        with pytest.raises(ValueError):
            ChatMessage(role="robot", content="x")

    def test_estimate_tokens(self):
        assert estimate_tokens("abcd" * 10) == 10
        assert estimate_tokens("") == 1


class TestScriptedLLM:
    def test_replays_in_order(self):
        llm = ScriptedLLM(responses=["one", "two"])
        first = llm.complete([ChatMessage("user", "a")])
        second = llm.complete([ChatMessage("user", "b")])
        assert (first.text, second.text) == ("one", "two")
        assert len(llm.calls) == 2

    def test_exhaustion_raises(self):
        llm = ScriptedLLM(responses=[])
        with pytest.raises(LLMError, match="exhausted"):
            llm.complete([ChatMessage("user", "a")])


class TestProfiles:
    def test_lookup(self):
        assert profile_for("gpt-4o") is GPT_4O
        with pytest.raises(KeyError, match="known"):
            profile_for("gpt-5")

    def test_count_of_matches_paper_rounding(self):
        assert count_of(77.0, 156) == 120
        assert count_of(1.28, 156) == 2
        assert count_of(58.87, 156) == 92

    def test_profiles_cover_both_languages(self):
        for profile in PROFILES:
            for language in Language:
                behaviour = profile.for_language(language)
                assert 0 <= behaviour.base_functional_pct <= 100
                assert (
                    behaviour.aivril_functional_pct
                    >= behaviour.base_functional_pct
                )

    def test_capability_ordering_matches_table1(self):
        """Claude > GPT-4o > Llama3 on functional baselines, both languages."""
        for language in Language:
            values = [
                p.for_language(language).base_functional_pct
                for p in (LLAMA3_70B, GPT_4O, CLAUDE_35_SONNET)
            ]
            assert values == sorted(values)


class TestDefectPlan:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("language", list(Language), ids=lambda l: l.value)
    def test_plan_reproduces_table1_counts(self, suite, profile, language):
        behaviour = profile.for_language(language)
        plans = build_defect_plan(profile, language, suite)
        stats = plan_statistics(plans)
        total = len(suite)
        assert stats.base_syntax_pass == count_of(
            behaviour.base_syntax_pct, total
        )
        assert stats.base_functional_pass == count_of(
            behaviour.base_functional_pct, total
        )
        assert stats.final_syntax_pass == count_of(
            behaviour.aivril_syntax_pct, total
        )
        assert stats.final_functional_pass == count_of(
            behaviour.aivril_functional_pct, total
        )

    def test_plan_is_deterministic(self, suite):
        a = build_defect_plan(GPT_4O, Language.VERILOG, suite)
        b = build_defect_plan(GPT_4O, Language.VERILOG, suite)
        assert {k: v.syntax_cycles for k, v in a.items()} == {
            k: v.syntax_cycles for k, v in b.items()
        }

    def test_cycle_sequence_mean(self):
        values = _cycle_sequence(3.95, 200)
        assert abs(sum(values) / len(values) - 3.95) < 0.05
        assert all(1 <= v <= 6 for v in values)

    def test_cycle_sequence_integral_mean(self):
        assert _cycle_sequence(2.0, 10) == [2] * 10

    def test_cycle_sequence_empty(self):
        assert _cycle_sequence(3.0, 0) == []


class TestSyntheticLLM:
    def _prompt(self, task, problem, language):
        return [
            ChatMessage(
                "user",
                f"{task}\nTarget language: "
                f"{protocol.language_tag(language)}\n"
                f"{protocol.spec_block(problem.prompt)}",
            )
        ]

    def test_testbench_is_golden(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        problem = suite.get("gates_and")
        response = llm.complete(
            self._prompt(protocol.TASK_TESTBENCH, problem, Language.VERILOG)
        )
        assert response.text == problem.golden_tb[Language.VERILOG]

    def test_weak_testbench_is_shorter(self, suite):
        llm = SyntheticDesignLLM(
            CLAUDE_35_SONNET, suite, testbench_quality="weak"
        )
        # pick a problem with a large vector set so the cap actually bites
        problem = suite.get("vec_and8")
        response = llm.complete(
            self._prompt(protocol.TASK_TESTBENCH, problem, Language.VERILOG)
        )
        assert len(response.text) < len(problem.golden_tb[Language.VERILOG])

    def test_weak_testbench_keeps_the_first_cases(self, suite):
        llm = SyntheticDesignLLM(
            CLAUDE_35_SONNET, suite, testbench_quality="weak"
        )
        problem = suite.get("vec_and8")
        response = llm.complete(
            self._prompt(protocol.TASK_TESTBENCH, problem, Language.VERILOG)
        )
        assert response.text == make_testbench(
            problem.spec, problem.model, Language.VERILOG, problem.pid,
            max_cases=WEAK_TB_CASES,
        )
        assert f"Test Case {WEAK_TB_CASES} Failed" in response.text
        assert f"Test Case {WEAK_TB_CASES + 1} Failed" not in response.text

    def test_clean_problem_rtl_is_reference(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        plans = llm.plan(Language.VERILOG)
        pid = next(
            pid for pid, plan in plans.items()
            if not plan.has_syntax_defect and not plan.has_functional_defect
        )
        problem = suite.get(pid)
        response = llm.complete(
            self._prompt(protocol.TASK_RTL, problem, Language.VERILOG)
        )
        assert response.text == problem.reference[Language.VERILOG]

    def test_syntax_defective_rtl_fails_compile(self, suite):
        llm = SyntheticDesignLLM(LLAMA3_70B, suite)
        plans = llm.plan(Language.VERILOG)
        pid = next(
            pid for pid, plan in plans.items() if plan.has_syntax_defect
        )
        problem = suite.get(pid)
        response = llm.complete(
            self._prompt(protocol.TASK_RTL, problem, Language.VERILOG)
        )
        toolchain = Toolchain()
        result = toolchain.compile(
            [HdlFile("top_module.v", response.text, Language.VERILOG)],
            "top_module",
        )
        assert not result.ok

    def test_repairable_converges_after_assigned_cycles(self, suite):
        llm = SyntheticDesignLLM(LLAMA3_70B, suite)
        plans = llm.plan(Language.VERILOG)
        pid, plan = next(
            (pid, plan) for pid, plan in plans.items()
            if plan.has_syntax_defect and plan.syntax_repairable
        )
        problem = suite.get(pid)
        toolchain = Toolchain()
        llm.complete(self._prompt(protocol.TASK_RTL, problem, Language.VERILOG))
        final = None
        for _ in range(plan.syntax_cycles):
            final = llm.complete(
                self._prompt(
                    protocol.TASK_FIX_SYNTAX, problem, Language.VERILOG
                )
            )
        result = toolchain.compile(
            [HdlFile("top_module.v", final.text, Language.VERILOG)],
            "top_module",
        )
        assert result.ok

    def test_unrepairable_repeats_itself(self, suite):
        llm = SyntheticDesignLLM(LLAMA3_70B, suite)
        plans = llm.plan(Language.VHDL)
        pid = next(
            pid for pid, plan in plans.items()
            if plan.has_syntax_defect and not plan.syntax_repairable
        )
        problem = suite.get(pid)
        first = llm.complete(
            self._prompt(protocol.TASK_RTL, problem, Language.VHDL)
        )
        second = llm.complete(
            self._prompt(protocol.TASK_FIX_SYNTAX, problem, Language.VHDL)
        )
        assert first.text == second.text

    def test_analysis_extracts_error_lines(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        prompt = (
            f"{protocol.TASK_ANALYZE_COMPILE}\nTarget language: Verilog\n"
            + protocol.log_block(
                "INFO: starting\nERROR: [VRFC 10-1412] syntax error [f.v:3]"
            )
        )
        response = llm.complete([ChatMessage("user", prompt)])
        assert "VRFC 10-1412" in response.text

    def test_unknown_spec_raises(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        prompt = (
            f"{protocol.TASK_RTL}\nTarget language: Verilog\n"
            + protocol.spec_block("a design nobody ever specified")
        )
        with pytest.raises(LLMError, match="recognize"):
            llm.complete([ChatMessage("user", prompt)])

    def test_missing_task_header_raises(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        with pytest.raises(LLMError, match="TASK"):
            llm.complete([ChatMessage("user", "please write verilog")])

    def test_latency_comes_from_profile(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        problem = suite.get("gates_and")
        response = llm.complete(
            self._prompt(protocol.TASK_RTL, problem, Language.VERILOG)
        )
        behaviour = CLAUDE_35_SONNET.for_language(Language.VERILOG)
        assert response.latency_seconds == behaviour.rtl_gen_seconds

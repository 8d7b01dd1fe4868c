"""Tests for the three AIVRIL2 agents, using scripted LLMs where possible."""

import pytest

from repro.agents.base import StepKind, Transcript
from repro.agents.code_agent import CodeAgent, SpecificationIncomplete
from repro.agents.review_agent import ReviewAgent, parse_compile_log
from repro.agents.verification_agent import (
    VerificationAgent,
    parse_sim_failures,
)
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.llm import protocol
from repro.llm.mock import ScriptedLLM

GOOD_RTL = "module top_module(input a, output y); assign y = a; endmodule"
BAD_RTL = "module top_module(input a, output y); assign y = ; endmodule"
WRONG_RTL = "module top_module(input a, output y); assign y = ~a; endmodule"
TB = """
module tb;
    reg a; wire y;
    top_module dut(.a(a), .y(y));
    initial begin
        a = 0; #1;
        if (y !== 1'b0) $display("Test Case 1 Failed: y should be 0");
        a = 1; #1;
        if (y !== 1'b1) $display("Test Case 2 Failed: y should be 1");
        else if (y === 1'b1) $display("All tests passed successfully!");
        $finish;
    end
endmodule
"""


def files(rtl):
    return [
        HdlFile("top_module.v", rtl, Language.VERILOG),
        HdlFile("tb.v", TB, Language.VERILOG),
    ]


class TestCodeAgent:
    def test_testbench_then_rtl_versions(self):
        llm = ScriptedLLM(responses=[TB, GOOD_RTL])
        agent = CodeAgent(llm, Language.VERILOG, Transcript())
        tb = agent.generate_testbench("build a buffer with input a, output y")
        rtl = agent.generate_rtl("build a buffer", tb)
        assert agent.current_testbench == TB
        assert agent.current_rtl == GOOD_RTL
        assert [v.tag for v in agent.versions] == ["tb-v1", "rtl-v1"]

    def test_prompts_follow_protocol(self):
        captured = {}

        def on_call(index, messages):
            captured[index] = messages[-1].content

        llm = ScriptedLLM(responses=[TB, GOOD_RTL], on_call=on_call)
        agent = CodeAgent(llm, Language.VERILOG, Transcript())
        tb = agent.generate_testbench("a buffer with input a and output y")
        agent.generate_rtl("a buffer with input a and output y", tb)
        assert protocol.detect_task(captured[0]) == protocol.TASK_TESTBENCH
        assert protocol.detect_task(captured[1]) == protocol.TASK_RTL
        assert protocol.parse_spec(captured[1]) is not None

    def test_revision_history_and_rollback(self):
        llm = ScriptedLLM(responses=[GOOD_RTL, BAD_RTL])
        agent = CodeAgent(llm, Language.VERILOG, Transcript())
        agent.generate_rtl("spec long enough to be valid here", "")
        agent.revise_rtl("spec long enough to be valid here", "fix it",
                         kind="syntax")
        assert agent.current_rtl == BAD_RTL
        assert agent.rollback_rtl() == GOOD_RTL

    def test_thin_spec_without_dialog_raises(self):
        llm = ScriptedLLM(responses=["What are the ports?"])
        agent = CodeAgent(llm, Language.VERILOG, Transcript())
        with pytest.raises(SpecificationIncomplete):
            agent.ensure_specification("adder")

    def test_thin_spec_with_dialog_merges_answer(self):
        llm = ScriptedLLM(responses=["What are the ports?"])
        agent = CodeAgent(
            llm,
            Language.VERILOG,
            Transcript(),
            clarify=lambda q: "ports: a, b in; y out; y = a + b",
        )
        merged = agent.ensure_specification("adder")
        assert "a + b" in merged

    def test_revision_kind_validated(self):
        llm = ScriptedLLM(responses=[GOOD_RTL])
        agent = CodeAgent(llm, Language.VERILOG, Transcript())
        with pytest.raises(ValueError, match="kind"):
            agent.revise_rtl("spec", "feedback", kind="stylistic")

    def test_transcript_records_react_steps(self):
        llm = ScriptedLLM(responses=[TB])
        transcript = Transcript()
        agent = CodeAgent(llm, Language.VERILOG, transcript)
        agent.generate_testbench("a buffer with input a and output y")
        kinds = [s.kind for s in transcript.steps]
        assert StepKind.THOUGHT in kinds
        assert StepKind.ACTION in kinds
        assert StepKind.OBSERVATION in kinds


class TestReviewAgent:
    def test_clean_compile(self):
        llm = ScriptedLLM(responses=[])
        agent = ReviewAgent(llm, Toolchain(), Language.VERILOG, Transcript())
        outcome = agent.review(files(GOOD_RTL), "tb")
        assert outcome.ok
        assert outcome.tool_seconds > 0
        assert llm.calls == []  # no LLM needed for a clean compile

    def test_errors_become_corrective_prompt(self):
        llm = ScriptedLLM(responses=["analysis text from the reviewer"])
        agent = ReviewAgent(llm, Toolchain(), Language.VERILOG, Transcript())
        outcome = agent.review(files(BAD_RTL), "tb")
        assert not outcome.ok
        assert outcome.errors
        error = outcome.errors[0]
        assert error.line > 0
        assert error.code.startswith("VRFC")
        assert "syntax error" in outcome.corrective_prompt
        assert str(error.line) in outcome.corrective_prompt
        assert "analysis text from the reviewer" in outcome.corrective_prompt

    def test_parse_compile_log_extracts_fields(self):
        log = (
            "INFO: [XVLOG 1-1] Starting\n"
            "ERROR: [VRFC 10-1412] syntax error near ';' [dut.v:3]\n"
            "    > assign y = ;\n"
            "ERROR: [XVLOG 1-99] Analysis failed with 1 error(s), 0 warning(s)"
        )
        errors = parse_compile_log(log)
        assert len(errors) == 1
        assert errors[0].file == "dut.v"
        assert errors[0].line == 3
        assert errors[0].snippet == "assign y = ;"

    def test_summary_line_not_treated_as_error(self):
        log = "ERROR: [XVLOG 1-99] Analysis failed with 2 error(s)"
        assert parse_compile_log(log) == []


class TestVerificationAgent:
    def test_passing_simulation(self):
        llm = ScriptedLLM(responses=[])
        agent = VerificationAgent(
            llm, Toolchain(), Language.VERILOG, Transcript()
        )
        outcome = agent.verify(files(GOOD_RTL), "tb")
        assert outcome.ok
        assert llm.calls == []

    def test_failures_become_corrective_prompt(self):
        llm = ScriptedLLM(responses=["verifier analysis"])
        agent = VerificationAgent(
            llm, Toolchain(), Language.VERILOG, Transcript()
        )
        outcome = agent.verify(files(WRONG_RTL), "tb")
        assert not outcome.ok
        assert outcome.failures
        assert outcome.failures[0].case == 1
        assert "Test Case 1 Failed" in outcome.corrective_prompt
        assert "Keep the testbench unchanged" in outcome.corrective_prompt

    def test_parse_sim_failures(self):
        log = (
            "run all\n"
            "Test Case 3 Failed: q should be 5 at cycle 3, got 4\n"
            "ERROR: Test Case 7 Failed: q should be 0\n"
        )
        failures = parse_sim_failures(log)
        assert [f.case for f in failures] == [3, 7]

    def test_runtime_error_reported(self):
        oscillating = """
        module top_module(input a, output y);
            reg p, q;
            initial begin p = 0; q = 0; end
            always @(q) p = ~q;
            always @(p) q = p;
            assign y = a;
        endmodule
        """
        llm = ScriptedLLM(responses=["analysis"])
        agent = VerificationAgent(
            llm, Toolchain(), Language.VERILOG, Transcript()
        )
        outcome = agent.verify(files(oscillating), "tb")
        assert not outcome.ok
        assert "could not run to completion" in outcome.corrective_prompt


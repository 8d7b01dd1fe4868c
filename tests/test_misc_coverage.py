"""Coverage for smaller behaviours across the stack."""

import pytest

from repro.agents.base import Transcript
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.llm import protocol
from repro.llm.interface import ChatMessage
from repro.llm.mock import ScriptedLLM
from repro.llm.profiles import CLAUDE_35_SONNET
from repro.llm.synthetic import SyntheticDesignLLM
from repro.sim.values import Logic, logic


@pytest.fixture(scope="module")
def suite():
    return build_suite()


class TestLanguageEnum:
    def test_extensions(self):
        assert Language.VERILOG.file_extension == ".v"
        assert Language.VHDL.file_extension == ".vhd"

    def test_compilers(self):
        assert Language.VERILOG.compiler == "xvlog"
        assert Language.VHDL.compiler == "xvhdl"


class TestLogicHelpers:
    def test_octal_format(self):
        assert Logic.from_int(0o17, 6).format("o") == "17"

    def test_logic_string_helper(self):
        value = logic("10x")
        assert value.width == 3
        assert value.has_x

    def test_logic_width_override(self):
        assert logic("101", 5).width == 5


class TestVerilogLexerExtras:
    def test_escaped_identifier(self):
        from repro.hdl.source import SourceFile
        from repro.verilog.lexer import lex_verilog

        tokens = lex_verilog(SourceFile("t.v", r"\bus$signal other"))
        assert tokens[0].text == "bus$signal"

    def test_fatal_ends_simulation(self):
        toolchain = Toolchain()
        result = toolchain.simulate(
            [
                HdlFile(
                    "t.v",
                    'module tb; initial begin $fatal; #1 $display("no"); end'
                    " endmodule",
                    Language.VERILOG,
                )
            ],
            "tb",
        )
        assert result.finished_cleanly
        assert "no" not in result.output_lines

    def test_write_and_strobe_display(self):
        toolchain = Toolchain()
        result = toolchain.simulate(
            [
                HdlFile(
                    "t.v",
                    'module tb; initial begin $write("w"); $strobe("s");'
                    " $finish; end endmodule",
                    Language.VERILOG,
                )
            ],
            "tb",
        )
        assert result.output_lines == ("w", "s")


class TestAgentsBase:
    def test_take_latency_resets(self):
        llm = ScriptedLLM(responses=["x"], latency_seconds=2.5)
        from repro.agents.base import Agent

        agent = Agent("T", llm, Transcript())
        agent.ask_llm("hello")
        assert agent.take_latency() == 2.5
        assert agent.take_latency() == 0.0

    def test_system_prompt_forwarded(self):
        seen = {}

        def on_call(index, messages):
            seen["roles"] = [m.role for m in messages]

        llm = ScriptedLLM(responses=["x"], on_call=on_call)
        from repro.agents.base import Agent

        Agent("T", llm, Transcript()).ask_llm("hi", system="be terse")
        assert seen["roles"] == ["system", "user"]


class TestSyntheticClarify:
    def test_clarify_task_answered(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        prompt = (
            f"{protocol.TASK_CLARIFY}\nTarget language: Verilog\n"
            + protocol.spec_block("adder")
        )
        response = llm.complete([ChatMessage("user", prompt)])
        assert "interface" in response.text or "behaviour" in response.text

    def test_analyze_sim_task(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        prompt = (
            f"{protocol.TASK_ANALYZE_SIM}\nTarget language: Verilog\n"
            + protocol.log_block(
                "run all\nTest Case 4 Failed: q should be 1\nINFO: done"
            )
        )
        response = llm.complete([ChatMessage("user", prompt)])
        assert "Test Case 4 Failed" in response.text

    def test_analyze_empty_log_notes_it(self, suite):
        llm = SyntheticDesignLLM(CLAUDE_35_SONNET, suite)
        prompt = (
            f"{protocol.TASK_ANALYZE_COMPILE}\nTarget language: Verilog\n"
            + protocol.log_block("INFO: everything fine")
        )
        response = llm.complete([ChatMessage("user", prompt)])
        assert "re-check" in response.text


class TestVhdlParserExtras:
    def test_component_declaration_skipped(self):
        from repro.vhdl.parser import parse_vhdl

        design, collector = parse_vhdl(
            "entity m is port (a : in bit); end;\n"
            "architecture rtl of m is\n"
            "    component sub\n"
            "        port (x : in bit);\n"
            "    end component;\n"
            "begin\n"
            "end architecture;"
        )
        assert not collector.has_errors

    def test_component_style_instantiation_binds_entity(self):
        toolchain = Toolchain()
        source = (
            "library ieee;\nuse ieee.std_logic_1164.all;\n"
            "entity inv is port (a : in std_logic; y : out std_logic); end;\n"
            "architecture rtl of inv is begin y <= not a; end architecture;\n"
            "entity tb is end;\n"
            "architecture sim of tb is\n"
            "    signal a : std_logic := '0';\n"
            "    signal y : std_logic;\n"
            "begin\n"
            "    u0: inv port map (a => a, y => y);\n"
            "    stim: process begin\n"
            "        wait for 1 ns;\n"
            "        assert y = '1' report \"inv\" severity error;\n"
            "        report \"done\";\n"
            "        wait;\n"
            "    end process;\n"
            "end architecture;"
        )
        result = toolchain.simulate(
            [HdlFile("t.vhd", source, Language.VHDL)], "tb"
        )
        assert result.ok, result.log
        assert result.output_lines == ("done",)

    def test_selected_assign_pipe_choices(self):
        toolchain = Toolchain()
        source = (
            "library ieee;\nuse ieee.std_logic_1164.all;\n"
            "entity tb is end;\n"
            "architecture sim of tb is\n"
            "    signal s : std_logic_vector(1 downto 0) := \"01\";\n"
            "    signal y : std_logic;\n"
            "begin\n"
            "    with s select y <= '1' when \"00\" | \"01\", '0' when others;\n"
            "    stim: process begin\n"
            "        wait for 1 ns;\n"
            "        assert y = '1' report \"pipe choice\" severity error;\n"
            "        report \"done\";\n"
            "        wait;\n"
            "    end process;\n"
            "end architecture;"
        )
        result = toolchain.simulate(
            [HdlFile("t.vhd", source, Language.VHDL)], "tb"
        )
        assert result.ok, result.log
        assert result.output_lines == ("done",)

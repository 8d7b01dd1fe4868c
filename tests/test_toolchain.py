"""Tests for the EDA toolchain facade."""

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain

GOOD_V = "module top_module(input a, output y); assign y = a; endmodule"
BAD_V = "module top_module(input a, output y); assign y = a endmodule"
GOOD_VHD = """
library ieee;
use ieee.std_logic_1164.all;
entity top_module is
    port (a : in std_logic; y : out std_logic);
end entity;
architecture rtl of top_module is
begin
    y <= a;
end architecture;
"""


@pytest.fixture
def toolchain():
    return Toolchain()


class TestCompile:
    def test_clean_verilog(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.v", GOOD_V, Language.VERILOG)], "top_module"
        )
        assert result.ok
        assert "Analysis succeeded" in result.log
        assert result.error_count == 0
        assert result.tool_seconds > 0
        assert result.wall_seconds > 0

    def test_clean_vhdl(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.vhd", GOOD_VHD, Language.VHDL)], "top_module"
        )
        assert result.ok
        assert "XVHDL" in result.log

    def test_syntax_error_in_log_with_location(self, toolchain):
        result = toolchain.compile(
            [HdlFile("dut.v", BAD_V, Language.VERILOG)], "top_module"
        )
        assert not result.ok
        assert "ERROR: [VRFC" in result.log
        assert "[dut.v:1]" in result.log
        assert "Analysis failed" in result.log

    def test_semantic_error_detected(self, toolchain):
        source = "module top_module(input a, output y); assign y = ghost; endmodule"
        result = toolchain.compile(
            [HdlFile("t.v", source, Language.VERILOG)], "top_module"
        )
        assert not result.ok
        assert "'ghost'" in result.log

    def test_missing_top_module(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.v", GOOD_V, Language.VERILOG)], "nonexistent"
        )
        assert not result.ok
        assert "not found" in result.log

    def test_empty_file_set(self, toolchain):
        result = toolchain.compile([], "top")
        assert not result.ok

    def test_mixed_language_rejected(self, toolchain):
        result = toolchain.compile(
            [
                HdlFile("a.v", GOOD_V, Language.VERILOG),
                HdlFile("b.vhd", GOOD_VHD, Language.VHDL),
            ],
            "top_module",
        )
        assert not result.ok
        assert "mixed-language" in result.log

    def test_multi_file_verilog_resolves_across_files(self, toolchain):
        sub = "module sub(input a, output y); assign y = ~a; endmodule"
        top = (
            "module top_module(input a, output y);"
            " sub s0(.a(a), .y(y)); endmodule"
        )
        result = toolchain.compile(
            [
                HdlFile("sub.v", sub, Language.VERILOG),
                HdlFile("top.v", top, Language.VERILOG),
            ],
            "top_module",
        )
        assert result.ok, result.log

    def test_vhdl_case_insensitive_top(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.vhd", GOOD_VHD, Language.VHDL)], "TOP_MODULE"
        )
        assert result.ok

    @pytest.mark.parametrize("hdl_file", [
        HdlFile("t.v", GOOD_V, Language.VERILOG),
        HdlFile("t.vhd", GOOD_VHD, Language.VHDL),
    ])
    def test_parse_memo_hits_build_no_source_file(
        self, toolchain, monkeypatch, hdl_file
    ):
        import repro.eda.toolchain as toolchain_module

        companion = HdlFile(
            "c" + hdl_file.language.file_extension,
            hdl_file.text.replace("top_module", "companion"),
            hdl_file.language,
        )
        assert toolchain.simulate([hdl_file], "top_module").ok
        assert toolchain.compile([companion], "companion").ok
        built = []
        elaborated = []

        class CountingSourceFile(toolchain_module.SourceFile):
            def __post_init__(self):
                built.append(self.name)
                super().__post_init__()

        for name in ("elaborate_verilog", "elaborate_vhdl"):
            real = getattr(toolchain_module, name)
            monkeypatch.setattr(
                toolchain_module, name,
                lambda *args, real=real: elaborated.append(args[1])
                or real(*args),
            )
        monkeypatch.setattr(toolchain_module, "SourceFile", CountingSourceFile)
        # the same file in a file set new to the store re-elaborates its
        # top, and an unknown top (the first file's source is the fallback)
        # both reuse the SourceFile kept in the parse entry
        assert toolchain.simulate([hdl_file, companion], "top_module").ok
        assert not toolchain.compile([hdl_file], "nonexistent").ok
        assert elaborated == ["top_module", "nonexistent"]
        assert built == []


class TestSimulate:
    TB = """
    module tb;
        reg a; wire y;
        top_module dut(.a(a), .y(y));
        initial begin
            a = 1; #1;
            if (y === 1'b1) $display("All tests passed successfully!");
            $finish;
        end
    endmodule
    """

    def test_simulation_produces_xsim_log(self, toolchain):
        result = toolchain.simulate(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert result.ok
        assert "INFO: [XSIM 4-301]" in result.log
        assert "Simulation completed" in result.log
        assert result.finished_cleanly
        assert result.output_lines == ["All tests passed successfully!"]

    def test_compile_failure_skips_simulation(self, toolchain):
        result = toolchain.simulate(
            [
                HdlFile("t.v", BAD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert not result.ok
        assert "Simulation not run" in result.log
        assert result.compile_result is not None
        assert not result.compile_result.ok

    def test_sim_tool_seconds_exceed_compile(self, toolchain):
        compile_result = toolchain.compile(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        sim_result = toolchain.simulate(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert sim_result.tool_seconds > compile_result.tool_seconds

    def test_max_sim_time_bounds_runaway_clock(self):
        toolchain = Toolchain(max_sim_time=100)
        source = """
        module tb;
            reg clk;
            initial begin
                clk = 0;
                forever #5 clk = ~clk;
            end
        endmodule
        """
        result = toolchain.simulate(
            [HdlFile("t.v", source, Language.VERILOG)], "tb"
        )
        assert result.ok
        assert result.end_time <= 100
        assert not result.finished_cleanly  # no $finish was reached

    def test_fresh_state_between_simulations(self, toolchain):
        # two runs of the same stateful design must produce identical output
        source = """
        module tb;
            reg [3:0] n;
            initial begin
                n = 0;
                n = n + 1;
                $display("%0d", n);
                $finish;
            end
        endmodule
        """
        files = [HdlFile("t.v", source, Language.VERILOG)]
        first = toolchain.simulate(files, "tb")
        second = toolchain.simulate(files, "tb")
        assert first.output_lines == second.output_lines == ["1"]

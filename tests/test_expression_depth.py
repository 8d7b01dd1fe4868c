"""The expression depth bound: a deep expression is a diagnostic, not a crash.

Parsing, analysis, elaboration and the compiled simulation closures all
recurse over expressions. An expression at :data:`MAX_EXPR_DEPTH` levels
must still compile and simulate correctly in both languages; one level
more, and ten times more, must be the named ``EXPR_TOO_DEEP`` diagnostic
from ``Toolchain.compile`` and ``Toolchain.simulate``, never an exception.
"""

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.cursor import EXPR_TOO_DEEP, MAX_EXPR_DEPTH
from repro.verilog.parser import parse_verilog
from repro.vhdl.parser import parse_vhdl

#: expression shapes, each ``n`` levels deep
VERILOG_SHAPES = {
    "parens": lambda n: "(" * n + "a" + ")" * n,
    "unary": lambda n: "~" * n + "a",
    "chain": lambda n: " + ".join(["a"] * (n + 1)),
    "right": lambda n: "a + (" * (n - 1) + "a + a" + ")" * (n - 1),
    "ternary": lambda n: "s ? a : " * n + "a",
    "concat": lambda n: "{" * n + "a" + "}" * n,
    "select": lambda n: "a[" * n + "0" + "]" * n,
}
VHDL_SHAPES = {
    "parens": lambda n: "(" * n + "a" + ")" * n,
    "unary": lambda n: "not " * n + "a",
    "chain": lambda n: " + ".join(["a"] * (n + 1)),
    "right": lambda n: "a + (" * (n - 1) + "a + a" + ")" * (n - 1),
    "call": lambda n: "resize(" * n + "a" + ", 8)" * n,
}


def verilog_bench(expr: str) -> str:
    return f"""module tb;
  reg [7:0] a; reg s;
  wire [7:0] y;
  reg [7:0] z;
  assign y = {expr};
  always @(a or s) z = {expr};
  initial begin
    s = 0; a = 8'd3; #1 $display("%d %d", y, z);
    a = 8'd5; #1 $display("%d %d", y, z);
    $finish;
  end
endmodule
"""


def vhdl_bench(expr: str) -> str:
    return f"""library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal a : unsigned(7 downto 0) := (others => '0');
  signal y, z : unsigned(7 downto 0);
begin
  y <= {expr};
  process (a) begin z <= {expr}; end process;
  process begin
    a <= to_unsigned(3, 8); wait for 1 ns;
    assert y = z report "mismatch";
    a <= to_unsigned(5, 8); wait for 1 ns;
    assert y = z report "mismatch";
    report "done";
    wait;
  end process;
end architecture;
"""


CASES = [(Language.VERILOG, name, shape)
         for name, shape in VERILOG_SHAPES.items()] + [
    (Language.VHDL, name, shape) for name, shape in VHDL_SHAPES.items()
]
IDS = [f"{language.value}-{name}" for language, name, _ in CASES]


def bench_files(language: Language, expr: str) -> list[HdlFile]:
    if language is Language.VERILOG:
        return [HdlFile("tb.v", verilog_bench(expr), language)]
    return [HdlFile("tb.vhd", vhdl_bench(expr), language)]


def too_deep(diagnostics) -> bool:
    return any(d.message == EXPR_TOO_DEEP for d in diagnostics)


@pytest.mark.parametrize("language,name,shape", CASES, ids=IDS)
def test_expression_at_the_bound_compiles_and_simulates(language, name, shape):
    files = bench_files(language, shape(MAX_EXPR_DEPTH))
    compiled = Toolchain().compile(files, "tb")
    assert compiled.ok, compiled.log
    result = Toolchain().simulate(files, "tb")
    assert result.ok and not result.runtime_error, result.log
    if language is Language.VERILOG:
        assert result.finished_cleanly, result.log
        assert len(result.output_lines) == 2
        for line in result.output_lines:
            y, z = line.split()
            assert y == z, line
    else:
        assert "mismatch" not in result.log
        assert any("done" in line for line in result.output_lines)


@pytest.mark.parametrize("language,name,shape", CASES, ids=IDS)
def test_one_level_past_the_bound_is_a_diagnostic(language, name, shape):
    parse = parse_verilog if language is Language.VERILOG else parse_vhdl
    text = bench_files(language, shape(MAX_EXPR_DEPTH + 1))[0].text
    _, collector = parse(text)
    assert too_deep(collector.diagnostics)
    assert all(d.code == "VRFC 10-2951" for d in collector.diagnostics
               if d.message == EXPR_TOO_DEEP)


@pytest.mark.parametrize("language,name", [
    (Language.VERILOG, "parens"), (Language.VERILOG, "chain"),
    (Language.VHDL, "parens"), (Language.VHDL, "chain"),
])
def test_ten_times_the_bound_fails_the_compile_cleanly(language, name):
    shapes = VERILOG_SHAPES if language is Language.VERILOG else VHDL_SHAPES
    files = bench_files(language, shapes[name](10 * MAX_EXPR_DEPTH))
    compiled = Toolchain().compile(files, "tb")
    assert not compiled.ok
    assert too_deep(compiled.diagnostics)
    assert EXPR_TOO_DEEP in compiled.log
    result = Toolchain().simulate(files, "tb")
    assert not result.ok
    assert EXPR_TOO_DEEP in result.log

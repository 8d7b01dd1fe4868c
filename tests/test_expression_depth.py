"""The depth bounds: deep expressions and statements are diagnostics.

Parsing, analysis, elaboration and the compiled simulation closures all
recurse over expressions and statements. An expression at
:data:`MAX_EXPR_DEPTH` levels must still compile and simulate correctly in
both languages; one level more, and ten times more, must be the named
``EXPR_TOO_DEEP`` diagnostic from ``Toolchain.compile`` and
``Toolchain.simulate``, never an exception. The same expression inside a
``top_module`` passes its golden testbench identically on the batch tier,
which refuses the shapes it cannot lower or compile, and on the kernel.
Statements nested
:data:`MAX_STMT_DEPTH` levels deep, holding such an expression, must compile
and simulate too, their process bodies built inside the run; deeper nesting
is one ``STMT_TOO_DEEP`` diagnostic.
"""

import pytest

from repro.designs.model import CombModel, DesignSpec, PortSpec
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.cursor import (
    EXPR_TOO_DEEP,
    MAX_EXPR_DEPTH,
    MAX_STMT_DEPTH,
    STMT_TOO_DEEP,
)
from repro.verilog.parser import parse_verilog
from repro.vhdl.parser import parse_vhdl
from tests.simpaths import observables, simulate, simulate_kernel

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


#: a shape's value at depth *n* for ``a`` and ``s`` (before the 8-bit mask)
MODELS = {
    "parens": lambda n, a, s: a,
    "unary": lambda n, a, s: a if n % 2 == 0 else ~a,
    "chain": lambda n, a, s: (n + 1) * a,
    "right": lambda n, a, s: (n + 1) * a,
    "ternary": lambda n, a, s: a,
    "concat": lambda n, a, s: a,
    "select": lambda n, a, s: _select_model(n, a),
    "call": lambda n, a, s: a,
}


def _select_model(n: int, a: int) -> int:
    index = 0
    for _ in range(n):
        index = (a >> index) & 1
    return index


def dut_files(language: Language, name: str, expr: str) -> list[HdlFile]:
    """A ``top_module`` computing *expr*, judged by a golden testbench."""
    spec = DesignSpec(
        name=f"deep_{name}",
        ports=(PortSpec("x", 8, "in"), PortSpec("s", 1, "in"),
               PortSpec("y", 8, "out")),
    )
    model = CombModel(lambda v: {
        "y": MODELS[name](MAX_EXPR_DEPTH, v["x"], v["s"])
    })
    if language is Language.VERILOG:
        dut = (
            "module top_module(input [7:0] x, input s, output [7:0] y);\n"
            f"  wire [7:0] a = x;\n  assign y = {expr};\nendmodule\n"
        )
    else:
        dut = f"""library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
  port (x : in std_logic_vector(7 downto 0); s : in std_logic;
        y : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top_module is
  signal a, r : unsigned(7 downto 0);
begin
  a <= unsigned(x);
  r <= {expr};
  y <= std_logic_vector(r);
end architecture;
"""
    ext = language.file_extension
    testbench = make_testbench(
        spec, model, language, f"depth-{language.value}-{name}"
    )
    return [HdlFile(f"top_module{ext}", dut, language),
            HdlFile(f"tb{ext}", testbench, language)]


@pytest.mark.parametrize("language,name,shape", CASES, ids=IDS)
def test_expression_at_the_bound_passes_on_both_paths(language, name, shape):
    """A DUT at the bound passes its golden testbench identically on the
    batch tier, which plans every shape, and on the kernel."""
    files = dut_files(language, name, shape(MAX_EXPR_DEPTH))
    batched, calls = simulate(files)
    kernel = simulate_kernel(files)
    assert calls == 1
    assert batched.ok and not batched.runtime_error, batched.log
    assert any("All tests passed" in line
               for line in batched.output_lines), batched.log
    assert observables(batched) == observables(kernel)


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


# -- statement nesting ---------------------------------------------------------

#: statement shapes: ``shape(n, stmt)`` nests *stmt* ``n`` levels deep
VERILOG_STMT_SHAPES = {
    "begin": lambda n, stmt: "begin " * n + stmt + " end" * n,
    "if": lambda n, stmt: "if (s == 0) " * n + stmt,
    "case": lambda n, stmt: "case (s) 0: " * n + stmt + " endcase" * n,
    "for": lambda n, stmt: "for (i = 0; i < 1; i = i + 1) " * n + stmt,
    "repeat": lambda n, stmt: "repeat (1) " * n + stmt,
}
VHDL_STMT_SHAPES = {
    "if": lambda n, stmt: "if s = '0' then " * n + stmt + " end if;" * n,
    "case": lambda n, stmt: (
        "case s is when '0' => " * n + stmt
        + " when others => null; end case;" * n
    ),
    "for": lambda n, stmt: (
        "".join(f"for i{k} in 0 to 0 loop " for k in range(n)) + stmt
        + " end loop;" * n
    ),
}


def verilog_nest_bench(nest, expr: str) -> str:
    return f"""module tb;
  reg [7:0] a; reg s; integer i;
  wire [7:0] y;
  reg [7:0] z;
  assign y = {expr};
  always @(a or s) {nest(f"z = {expr};")}
  initial begin
    s = 0; a = 8'd3; #1 $display("%d %d", y, z);
    a = 8'd5; #1 $display("%d %d", y, z);
    $finish;
  end
endmodule
"""


def vhdl_nest_bench(nest, expr: str) -> str:
    return f"""library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal a : unsigned(7 downto 0) := (others => '0');
  signal s : std_logic := '0';
  signal y, z : unsigned(7 downto 0);
begin
  y <= {expr};
  process (a, s) begin {nest(f"z <= {expr};")} end process;
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


STMT_CASES = [(Language.VERILOG, name, shape)
              for name, shape in VERILOG_STMT_SHAPES.items()] + [
    (Language.VHDL, name, shape) for name, shape in VHDL_STMT_SHAPES.items()
]
STMT_IDS = [f"{language.value}-{name}" for language, name, _ in STMT_CASES]


def nest_files(language: Language, shape, depth: int) -> list[HdlFile]:
    """A bench whose process body nests *depth* statements around an
    assignment of the deepest accepted expression."""
    expr = (VERILOG_SHAPES if language is Language.VERILOG
            else VHDL_SHAPES)["right"](MAX_EXPR_DEPTH)
    nest = lambda stmt: shape(depth, stmt)  # noqa: E731
    if language is Language.VERILOG:
        return [HdlFile("tb.v", verilog_nest_bench(nest, expr), language)]
    return [HdlFile("tb.vhd", vhdl_nest_bench(nest, expr), language)]


@pytest.mark.parametrize("language,name,shape", STMT_CASES, ids=STMT_IDS)
def test_statements_at_the_bound_compile_and_simulate(language, name, shape):
    """The deepest accepted nesting runs; every process body, the deep one
    included, is built inside ``Simulator.run``."""
    files = nest_files(language, shape, MAX_STMT_DEPTH)
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


@pytest.mark.parametrize("language,name,shape", STMT_CASES, ids=STMT_IDS)
@pytest.mark.parametrize("depth", [MAX_STMT_DEPTH + 1, 10 * MAX_STMT_DEPTH],
                         ids=["one-past", "ten-times"])
def test_statements_past_the_bound_are_one_diagnostic(
    language, name, shape, depth
):
    files = nest_files(language, shape, depth)
    parse = parse_verilog if language is Language.VERILOG else parse_vhdl
    _, collector = parse(files[0].text)
    assert [(d.code, d.message) for d in collector.diagnostics] == [
        ("VRFC 10-2951", STMT_TOO_DEEP)
    ]
    compiled = Toolchain().compile(files, "tb")
    assert not compiled.ok
    assert [d.message for d in compiled.diagnostics] == [STMT_TOO_DEEP]
    result = Toolchain().simulate(files, "tb")
    assert not result.ok
    assert STMT_TOO_DEEP in result.log
    assert not result.output_lines


@pytest.mark.parametrize("language,text", [
    (Language.VERILOG,
     "module m; reg x; initial "
     + "if (x) " * 600 + "x = 1; else x = 0;"
     + " always @(x) begin x = 0; end endmodule\n"),
    (Language.VERILOG,
     "module m; reg x; initial begin "
     + "begin " * 600 + "x = 1;" + " end" * 600
     + " x = 0; end always @(x) x = 0; endmodule\n"),
    (Language.VHDL,
     "entity m is end entity; architecture a of m is signal x : bit; begin "
     "process begin " + "if x = '0' then " * 600 + "x <= '1';"
     + " end if;" * 600 + " wait; end process; x <= '0'; end architecture;\n"),
], ids=["verilog-if-else", "verilog-begin", "vhdl-if"])
def test_too_deep_statement_skips_to_its_end(language, text):
    """The skipped statement ends where it should: the rest still parses."""
    parse = parse_verilog if language is Language.VERILOG else parse_vhdl
    tree, collector = parse(text)
    assert [d.message for d in collector.diagnostics] == [STMT_TOO_DEEP]
    if language is Language.VERILOG:
        (module,) = tree.modules
        assert len(module.items) == 3
    else:
        (arch,) = tree.architectures
        assert len(arch.statements) == 2

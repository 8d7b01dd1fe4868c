"""Tests for the Verilog lexer, parser, and analyzer."""

import pytest

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.hdl.tokens import TokenKind
from repro.verilog import ast
from repro.verilog.analyzer import analyze_verilog
from repro.verilog.lexer import lex_verilog
from repro.verilog.parser import (
    VerilogParser,
    parse_number_literal,
    parse_verilog,
)


def lex(text):
    return lex_verilog(SourceFile("t.v", text))


def parse_ok(text):
    unit, collector = parse_verilog(text)
    assert not collector.has_errors, [d.render() for d in collector.diagnostics]
    return unit


def analyze(text):
    unit, collector = parse_verilog(text)
    source = SourceFile("t.v", text)
    analyze_verilog(unit, source, collector)
    return collector


class TestLexer:
    def test_kinds(self):
        tokens = lex("module m; wire [3:0] w = 4'b1010; endmodule")
        kinds = [t.kind for t in tokens]
        assert TokenKind.KEYWORD in kinds
        assert TokenKind.BASED_NUMBER in kinds
        assert kinds[-1] is TokenKind.EOF

    def test_ident_at_eof_terminates(self):
        # regression: "" in "_$" is True; the lexer must not loop at EOF
        tokens = lex("endmodule")
        assert tokens[0].text == "endmodule"
        assert tokens[-1].kind is TokenKind.EOF

    def test_line_comment_skipped(self):
        tokens = lex("wire w; // trailing comment")
        assert all("comment" not in t.text for t in tokens)

    def test_block_comment_skipped(self):
        tokens = lex("wire /* hidden */ w;")
        assert [t.text for t in tokens[:2]] == ["wire", "w"]

    def test_unterminated_block_comment_reported(self):
        collector = DiagnosticCollector()
        lex_verilog(SourceFile("t.v", "wire w; /* oops"), collector)
        assert collector.has_errors

    def test_directives_skipped(self):
        tokens = lex("`timescale 1ns/1ps\nmodule m; endmodule")
        assert tokens[0].text == "module"

    def test_system_identifier(self):
        tokens = lex("$display")
        assert tokens[0].kind is TokenKind.SYSTEM_ID

    def test_string(self):
        tokens = lex('"hello %d"')
        assert tokens[0].kind is TokenKind.STRING

    def test_unterminated_string_reported(self):
        collector = DiagnosticCollector()
        lex_verilog(SourceFile("t.v", '"oops'), collector)
        assert collector.has_errors

    def test_multichar_operators_maximal_munch(self):
        tokens = lex("a <<< b === c")
        texts = [t.text for t in tokens]
        assert "<<<" in texts and "===" in texts


class TestNumberLiterals:
    def test_plain_decimal_is_32_bits(self):
        value, sized = parse_number_literal("42")
        assert (value.width, value.to_int(), sized) == (32, 42, False)

    def test_sized_binary(self):
        value, sized = parse_number_literal("4'b1010")
        assert (value.width, value.to_int(), sized) == (4, 0b1010, True)

    def test_hex(self):
        value, _ = parse_number_literal("8'hFF")
        assert value.to_int() == 255

    def test_x_digits(self):
        value, _ = parse_number_literal("4'b10x1")
        assert value.has_x

    def test_signed_marker_skipped(self):
        value, _ = parse_number_literal("4'sd3")
        assert value.to_int() == 3

    def test_underscores(self):
        value, _ = parse_number_literal("8'b1010_1010")
        assert value.to_int() == 0xAA


class TestParser:
    def test_simple_module(self):
        unit = parse_ok("module m(input a, output y); assign y = a; endmodule")
        module = unit.module("m")
        assert module.port_names() == ["a", "y"]

    def test_parameterized_header(self):
        unit = parse_ok(
            "module m #(parameter W = 4)(input [W-1:0] a, output [W-1:0] y);"
            " assign y = a; endmodule"
        )
        params = [i for i in unit.module("m").items
                  if isinstance(i, ast.ParamDecl)]
        assert params[0].name == "W"

    def test_multiple_declarators_flattened(self):
        unit = parse_ok("module m; wire a, b, c; endmodule")
        decls = [i for i in unit.module("m").items
                 if isinstance(i, ast.NetDecl)]
        assert [d.name for d in decls] == ["a", "b", "c"]

    def test_always_with_edges(self):
        unit = parse_ok(
            "module m(input clk, input rst, output reg q);"
            " always @(posedge clk or negedge rst) q <= 1'b0; endmodule"
        )
        always = next(i for i in unit.module("m").items
                      if isinstance(i, ast.AlwaysBlock))
        assert [s.edge for s in always.sensitivity.items] == ["pos", "neg"]

    def test_star_sensitivity(self):
        unit = parse_ok(
            "module m(input a, output reg y); always @(*) y = a; endmodule"
        )
        always = next(i for i in unit.module("m").items
                      if isinstance(i, ast.AlwaysBlock))
        assert always.sensitivity.star

    def test_case_with_default(self):
        unit = parse_ok(
            "module m(input [1:0] s, output reg y);"
            " always @(*) case (s) 2'b00: y = 0; default: y = 1; endcase"
            " endmodule"
        )
        case = next(
            i.body for i in unit.module("m").items
            if isinstance(i, ast.AlwaysBlock)
        )
        assert isinstance(case, ast.Case)
        assert case.items[-1].labels == ()

    def test_ternary_precedence(self):
        unit = parse_ok(
            "module m(input a, input b, input s, output y);"
            " assign y = s ? a : b; endmodule"
        )
        assign = next(i for i in unit.module("m").items
                      if isinstance(i, ast.ContinuousAssign))
        assert isinstance(assign.value, ast.Ternary)

    def test_concat_and_replication(self):
        unit = parse_ok(
            "module m(input [3:0] a, output [7:0] y);"
            " assign y = {a, {4{a[0]}}}; endmodule"
        )
        assign = next(i for i in unit.module("m").items
                      if isinstance(i, ast.ContinuousAssign))
        assert isinstance(assign.value, ast.Concat)
        assert isinstance(assign.value.parts[1], ast.Replicate)

    def test_instantiation_named_ports(self):
        unit = parse_ok(
            "module sub(input a, output y); assign y = a; endmodule\n"
            "module top(input a, output y); sub s0(.a(a), .y(y)); endmodule"
        )
        inst = next(i for i in unit.module("top").items
                    if isinstance(i, ast.Instantiation))
        assert inst.module == "sub"
        assert [c.port for c in inst.connections] == ["a", "y"]

    def test_instantiation_with_parameters(self):
        unit = parse_ok(
            "module sub #(parameter W = 1)(input a, output y);"
            " assign y = a; endmodule\n"
            "module top(input a, output y);"
            " sub #(.W(4)) s0(.a(a), .y(y)); endmodule"
        )
        inst = next(i for i in unit.module("top").items
                    if isinstance(i, ast.Instantiation))
        assert inst.parameters[0][0] == "W"

    def test_missing_semicolon_reports_and_recovers(self):
        unit, collector = parse_verilog(
            "module m(input a, output y);\n"
            "assign y = a\n"
            "wire extra;\n"
            "endmodule"
        )
        assert collector.has_errors
        assert unit.modules  # the module itself is still produced

    def test_missing_endmodule_reported(self):
        _, collector = parse_verilog("module m(input a, output y); assign y = a;")
        assert any("endmodule" in d.message for d in collector.errors())

    def test_error_message_has_location(self):
        _, collector = parse_verilog("module m;\nassign y = ;\nendmodule")
        diag = next(collector.errors())
        assert diag.location is not None and diag.location.line == 2

    def test_unsupported_construct_reported(self):
        _, collector = parse_verilog(
            "module m; function f; endfunction endmodule"
        )
        assert any("unsupported" in d.message for d in collector.errors())

    def test_non_ansi_ports(self):
        unit = parse_ok(
            "module m(a, y); input a; output y; assign y = a; endmodule"
        )
        assert unit.module("m").port_names() == ["a", "y"]

    def test_indexed_part_select(self):
        unit = parse_ok(
            "module m(input [7:0] a, output [3:0] y);"
            " assign y = a[3 +: 4]; endmodule"
        )
        assign = next(i for i in unit.module("m").items
                      if isinstance(i, ast.ContinuousAssign))
        assert isinstance(assign.value, ast.IndexedPartSelect)


class TestAnalyzer:
    def test_clean_module(self):
        collector = analyze(
            "module m(input a, output y); assign y = a; endmodule"
        )
        assert not collector.has_errors

    def test_undeclared_identifier(self):
        collector = analyze(
            "module m(input a, output y); assign y = b; endmodule"
        )
        assert any("'b' is not declared" in d.message for d in collector.errors())

    def test_assign_to_input(self):
        collector = analyze(
            "module m(input a, output y); assign a = y; endmodule"
        )
        assert any("input port" in d.message for d in collector.errors())

    def test_procedural_assign_to_wire(self):
        collector = analyze(
            "module m(input a, output y); always @(*) y = a; endmodule"
        )
        assert any("non-register" in d.message for d in collector.errors())

    def test_continuous_assign_to_reg(self):
        collector = analyze(
            "module m(input a, output reg y); assign y = a; endmodule"
        )
        assert any("register" in d.message for d in collector.errors())

    def test_unknown_module(self):
        collector = analyze(
            "module top(input a, output y); ghost g0(.a(a), .y(y)); endmodule"
        )
        assert any("unknown module" in d.message for d in collector.errors())

    def test_unknown_port_on_instance(self):
        collector = analyze(
            "module sub(input a, output y); assign y = a; endmodule\n"
            "module top(input a, output y); sub s(.a(a), .z(y)); endmodule"
        )
        assert any("no port named 'z'" in d.message for d in collector.errors())

    def test_too_many_positional_connections(self):
        collector = analyze(
            "module sub(input a, output y); assign y = a; endmodule\n"
            "module top(input a, output y); sub s(a, y, a); endmodule"
        )
        assert any("only" in d.message for d in collector.errors())

    def test_duplicate_declaration(self):
        collector = analyze("module m; wire w; wire w; endmodule")
        assert any("already declared" in d.message for d in collector.errors())

    def test_unknown_system_task(self):
        collector = analyze(
            'module m; initial $dispaly("typo"); endmodule'
        )
        assert any("$dispaly" in d.message for d in collector.errors())

    def test_reg_redeclaration_of_port_is_legal(self):
        collector = analyze(
            "module m(input clk, output q); reg q;"
            " always @(posedge clk) q <= 1'b1; endmodule"
        )
        assert not collector.has_errors


def shape(expr) -> str:
    """An expression tree as an s-expression of operators and names."""
    if isinstance(expr, ast.Binary):
        return f"({expr.op} {shape(expr.lhs)} {shape(expr.rhs)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op} {shape(expr.operand)})"
    if isinstance(expr, ast.Ternary):
        parts = (expr.cond, expr.if_true, expr.if_false)
        return f"(? {' '.join(shape(part) for part in parts)})"
    return expr.name


class TestExpressionShapes:
    """Precedence and associativity of the operator table."""

    @pytest.mark.parametrize("text,expected", [
        ("a - b - c", "(- (- a b) c)"),
        ("a ** b ** c", "(** (** a b) c)"),
        ("a || b && c | d", "(|| a (&& b (| c d)))"),
        ("a ^ b & c", "(^ a (& b c))"),
        ("a + b * c << d", "(<< (+ a (* b c)) d)"),
        ("a == b < c", "(== a (< b c))"),
        ("-a ** b", "(** (- a) b)"),
        ("~&a | b", "(| (~& a) b)"),
        ("a ? b : c ? d : e", "(? a b (? c d e))"),
        ("a || b ? c : d", "(? (|| a b) c d)"),
    ])
    def test_tree_shape(self, text, expected):
        collector = DiagnosticCollector()
        parser = VerilogParser(SourceFile("t.v", text), collector)
        assert shape(parser.parse_expression()) == expected
        assert parser._at_eof() and not collector.diagnostics


class TestEscapedIdentifiers:
    """An escaped identifier is an identifier whatever it spells: the
    parsers dispatch on token keys, and an identifier's key is its kind."""

    DESIGN = r"""
module dut(input \begin , input [3:0] \( , output \end );
  wire \module ;
  assign \module = \begin ^ \( [1];
  assign \end = \module & \( [0];
endmodule

module tb;
  reg \begin ;
  reg [3:0] \( ;
  wire \end ;
  dut \module (.\begin (\begin ), .\( (\( ), .\end (\end ));
  initial begin
    \begin = 1; \( = 4'b0011;
    #1 $display("end=%b", \end );
    \( = 4'b0001;
    #1 $display("end=%b", \end );
    $finish;
  end
endmodule
"""

    def test_parse_as_identifiers(self):
        dut, tb = parse_ok(self.DESIGN).modules
        assert [port.name for port in dut.ports] == ["begin", "(", "end"]
        wire, inner, outer = dut.items
        assert wire.name == "module"
        assert inner.target.name == "module"
        assert inner.value.lhs.name == "begin"
        assert inner.value.rhs.target == "("
        assert outer.target.name == "end"
        instance = next(
            item for item in tb.items if isinstance(item, ast.Instantiation)
        )
        assert (instance.module, instance.instance) == ("dut", "module")
        assert [c.port for c in instance.connections] == ["begin", "(", "end"]

    def test_spans_keep_the_backslash(self):
        unit = parse_ok(r"module m(output \end ); endmodule")
        port = unit.modules[0].ports[0]
        assert (port.span.start_offset, port.span.end_offset) == (16, 20)

    def test_analyze_and_simulate(self):
        from repro.eda.toolchain import HdlFile, Language, Toolchain

        assert not analyze(self.DESIGN).diagnostics
        files = [HdlFile("tb.v", self.DESIGN, Language.VERILOG)]
        toolchain = Toolchain()
        assert toolchain.compile(files, "tb").ok
        result = toolchain.simulate(files, "tb")
        assert result.ok, result.log
        assert result.output_lines == ("end=0", "end=1")

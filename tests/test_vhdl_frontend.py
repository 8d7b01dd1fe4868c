"""Tests for the VHDL lexer, parser, and analyzer."""

import pytest

from repro.hdl.cursor import ParseError
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.hdl.tokens import TokenKind
from repro.vhdl import ast
from repro.vhdl.analyzer import analyze_vhdl
from repro.vhdl.lexer import lex_vhdl
from repro.vhdl.parser import VhdlParser, parse_vhdl

ENTITY = """
library ieee;
use ieee.std_logic_1164.all;

entity m is
    port (
        a : in std_logic;
        y : out std_logic
    );
end entity;
"""


def lex(text):
    return lex_vhdl(SourceFile("t.vhd", text))


def parse_ok(text):
    design, collector = parse_vhdl(text)
    assert not collector.has_errors, [d.render() for d in collector.diagnostics]
    return design


def analyze(text):
    design, collector = parse_vhdl(text)
    analyze_vhdl(design, SourceFile("t.vhd", text), collector)
    return collector


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = lex("ENTITY Foo IS")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[0].text == "entity"

    def test_identifier_preserves_case_text(self):
        tokens = lex("signal MySig : std_logic;")
        assert any(t.text == "MySig" for t in tokens)

    def test_comment_skipped(self):
        tokens = lex("signal s; -- a comment\nsignal t;")
        assert all("comment" not in t.text for t in tokens)

    def test_char_literal(self):
        tokens = lex("y <= '1';")
        chars = [t for t in tokens if t.kind is TokenKind.CHAR]
        assert chars and chars[0].text == "'1'"

    def test_attribute_tick_not_char(self):
        tokens = lex("if clk'event then")
        kinds = [t.kind for t in tokens]
        assert TokenKind.CHAR not in kinds

    def test_bit_string_literal(self):
        tokens = lex('x"A5"')
        assert tokens[0].kind is TokenKind.BASED_NUMBER
        assert tokens[0].text == 'x"A5"'

    def test_string_literal(self):
        tokens = lex('report "Test Case 1 Failed";')
        assert any(t.kind is TokenKind.STRING for t in tokens)

    def test_ident_at_eof_terminates(self):
        tokens = lex("architecture")
        assert tokens[-1].kind is TokenKind.EOF


class TestParser:
    def test_entity_ports(self):
        design = parse_ok(ENTITY)
        entity = design.entity("m")
        assert [p.name for p in entity.ports] == ["a", "y"]
        assert entity.ports[0].direction == "in"

    def test_generics_with_defaults(self):
        design = parse_ok(
            "entity g is generic (W : integer := 4); port (a : in bit); end;"
        )
        entity = design.entity("g")
        assert entity.generics[0].name == "w"
        assert isinstance(entity.generics[0].default, ast.IntLiteral)

    def test_architecture_with_signal(self):
        design = parse_ok(
            ENTITY
            + "architecture rtl of m is\n"
            "    signal s : std_logic;\n"
            "begin\n"
            "    s <= a;\n"
            "    y <= s;\n"
            "end architecture;"
        )
        arch = design.architecture_of("m")
        assert arch is not None
        assert len(arch.declarations) == 1
        assert len(arch.statements) == 2

    def test_conditional_assign(self):
        design = parse_ok(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    y <= '1' when a = '1' else '0';\n"
            "end architecture;"
        )
        statement = design.architecture_of("m").statements[0]
        assert isinstance(statement, ast.ConditionalAssign)

    def test_selected_assign(self):
        design = parse_ok(
            "entity m is port (s : in std_logic_vector(1 downto 0);"
            " y : out std_logic); end;\n"
            "architecture rtl of m is begin\n"
            "    with s select y <= '1' when \"00\", '0' when others;\n"
            "end architecture;"
        )
        statement = design.architecture_of("m").statements[0]
        assert isinstance(statement, ast.SelectedAssign)

    def test_process_with_sensitivity(self):
        design = parse_ok(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    process(a) begin\n"
            "        y <= a;\n"
            "    end process;\n"
            "end architecture;"
        )
        process = design.architecture_of("m").statements[0]
        assert isinstance(process, ast.ProcessStatement)
        assert process.sensitivity == ("a",)

    def test_process_with_variables_and_loop(self):
        design = parse_ok(
            "entity m is port (d : in std_logic_vector(3 downto 0);"
            " y : out std_logic_vector(2 downto 0)); end;\n"
            "architecture rtl of m is begin\n"
            "    process(d)\n"
            "        variable cnt : unsigned(2 downto 0);\n"
            "    begin\n"
            "        cnt := (others => '0');\n"
            "        for i in 0 to 3 loop\n"
            "            if d(i) = '1' then cnt := cnt + 1; end if;\n"
            "        end loop;\n"
            "        y <= std_logic_vector(cnt);\n"
            "    end process;\n"
            "end architecture;"
        )
        process = design.architecture_of("m").statements[0]
        assert process.declarations[0].name == "cnt"
        assert any(isinstance(s, ast.ForLoop) for s in process.body)

    def test_entity_instantiation(self):
        design = parse_ok(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    u0: entity work.sub port map (a => a, y => y);\n"
            "end architecture;"
        )
        inst = design.architecture_of("m").statements[0]
        assert isinstance(inst, ast.EntityInstantiation)
        assert inst.entity == "sub"
        assert [i.port for i in inst.port_map] == ["a", "y"]

    def test_wait_statements(self):
        design = parse_ok(
            "entity tb is end;\n"
            "architecture sim of tb is\n"
            "    signal clk : std_logic := '0';\n"
            "begin\n"
            "    process begin\n"
            "        wait for 5 ns;\n"
            "        wait until clk = '1';\n"
            "        wait;\n"
            "    end process;\n"
            "end architecture;"
        )
        process = design.architecture_of("tb").statements[0]
        waits = [s for s in process.body if isinstance(s, ast.WaitStatement)]
        assert len(waits) == 3
        assert waits[0].for_time is not None
        assert waits[1].until is not None
        assert waits[2].for_time is None and waits[2].until is None

    def test_assert_and_report(self):
        design = parse_ok(
            "entity tb is end;\n"
            "architecture sim of tb is begin\n"
            "    process begin\n"
            "        assert false report \"bad\" severity error;\n"
            "        report \"done\";\n"
            "        wait;\n"
            "    end process;\n"
            "end architecture;"
        )
        process = design.architecture_of("tb").statements[0]
        assert isinstance(process.body[0], ast.AssertStatement)
        assert process.body[0].severity == "error"
        assert isinstance(process.body[1], ast.ReportStatement)

    def test_case_statement(self):
        design = parse_ok(
            "entity m is port (s : in std_logic_vector(1 downto 0);"
            " y : out std_logic); end;\n"
            "architecture rtl of m is begin\n"
            "    process(s) begin\n"
            "        case s is\n"
            "            when \"00\" => y <= '0';\n"
            "            when others => y <= '1';\n"
            "        end case;\n"
            "    end process;\n"
            "end architecture;"
        )
        process = design.architecture_of("m").statements[0]
        case = process.body[0]
        assert isinstance(case, ast.CaseStatement)
        assert case.alternatives[1].choices == ()

    def test_missing_is_reports_error(self):
        _, collector = parse_vhdl("entity broken port (a : in bit); end;")
        assert collector.has_errors

    def test_missing_semicolon_recovers(self):
        design, collector = parse_vhdl(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    y <= a\n"
            "end architecture;"
        )
        assert collector.has_errors
        assert design.entities  # the entity still parsed

    def test_downto_range_in_types(self):
        design = parse_ok(
            "entity m is port (v : in std_logic_vector(7 downto 0);"
            " y : out std_logic); end;"
        )
        mark = design.entity("m").ports[0].type_mark
        assert mark.descending


class TestAnalyzer:
    def test_clean(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin y <= a; end architecture;"
        )
        assert not collector.has_errors

    def test_undeclared_name(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin y <= ghost; end architecture;"
        )
        assert any("'ghost'" in d.message for d in collector.errors())

    def test_assign_to_input(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin a <= y; end architecture;"
        )
        assert any("input port" in d.message for d in collector.errors())

    def test_architecture_without_entity(self):
        collector = analyze(
            "architecture rtl of ghost is begin end architecture;"
        )
        assert any("unknown entity" in d.message for d in collector.errors())

    def test_unknown_type(self):
        collector = analyze(
            "entity m is port (a : in magic_type); end;"
        )
        assert any("unsupported type" in d.message for d in collector.errors())

    def test_vector_without_constraint(self):
        collector = analyze(
            "entity m is port (a : in std_logic_vector); end;"
        )
        assert any("range constraint" in d.message for d in collector.errors())

    def test_process_with_sensitivity_and_wait_rejected(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    process(a) begin\n"
            "        wait for 5 ns;\n"
            "    end process;\n"
            "end architecture;"
        )
        assert any("cannot contain wait" in d.message for d in collector.errors())

    def test_process_without_sensitivity_or_wait_rejected(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    process begin\n"
            "        y <= a;\n"
            "    end process;\n"
            "end architecture;"
        )
        assert any("never suspend" in d.message for d in collector.errors())

    def test_case_requires_others(self):
        collector = analyze(
            "entity m is port (s : in std_logic_vector(1 downto 0);"
            " y : out std_logic); end;\n"
            "architecture rtl of m is begin\n"
            "    process(s) begin\n"
            "        case s is when \"00\" => y <= '0'; end case;\n"
            "    end process;\n"
            "end architecture;"
        )
        assert any("when others" in d.message for d in collector.errors())

    def test_variable_assigned_with_signal_arrow_rejected(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    process(a)\n"
            "        variable v : std_logic;\n"
            "    begin\n"
            "        v <= a;\n"
            "        y <= v;\n"
            "    end process;\n"
            "end architecture;"
        )
        assert any("variable" in d.message for d in collector.errors())

    def test_unknown_entity_in_instantiation(self):
        collector = analyze(
            ENTITY
            + "architecture rtl of m is begin\n"
            "    u0: entity work.ghost port map (a => a, y => y);\n"
            "end architecture;"
        )
        assert any("unknown entity 'ghost'" in d.message
                   for d in collector.errors())

    def test_unknown_port_in_map(self):
        collector = analyze(
            "entity sub is port (p : in std_logic; q : out std_logic); end;\n"
            "architecture rtl of sub is begin q <= p; end architecture;\n"
            + ENTITY
            + "architecture rtl of m is begin\n"
            "    u0: entity work.sub port map (zz => a, q => y);\n"
            "end architecture;"
        )
        assert any("no port 'zz'" in d.message for d in collector.errors())


def shape(expr) -> str:
    """An expression tree as an s-expression of operators and names."""
    if isinstance(expr, ast.Binary):
        return f"({expr.op} {shape(expr.lhs)} {shape(expr.rhs)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op} {shape(expr.operand)})"
    return expr.name


class TestExpressionShapes:
    """Precedence of the operator table and the operators that do not chain."""

    @pytest.mark.parametrize("text,expected,rest", [
        ("-a + b", "(+ (- a) b)", ""),
        ("-a * b", "(- (* a b))", ""),  # the sign binds the first term
        ("a = -b", "(= a (- b))", ""),
        ("a and b or c", "(or (and a b) c)", ""),
        ("a and b = c", "(and a (= b c))", ""),
        ("not a and b", "(and (not a) b)", ""),
        ("a + b mod c & d", "(& (+ a (mod b c)) d)", ""),
        ("a = b = c", "(= a b)", "="),  # a relation does not chain
        ("a and b = c = d", "(and a (= b c))", "="),
        ("a ** b ** c", "(** a b)", "**"),  # nor does **
    ])
    def test_tree_shape(self, text, expected, rest):
        collector = DiagnosticCollector()
        parser = VhdlParser(SourceFile("t.vhd", text), collector)
        assert shape(parser.parse_expression()) == expected
        assert parser.texts[parser.pos] == rest and not collector.diagnostics

    def test_sign_only_starts_a_simple_expression(self):
        collector = DiagnosticCollector()
        parser = VhdlParser(SourceFile("t.vhd", "a + -b"), collector)
        with pytest.raises(ParseError):
            parser.parse_expression()
        assert [d.message for d in collector.diagnostics] == [
            "syntax error near '-': expected an expression"
        ]


class TestQualifiedExpressions:
    """``type_mark'(expression)``: a vector type mark parses like its
    conversion, a scalar one as its operand."""

    def parse(self, text):
        collector = DiagnosticCollector()
        parser = VhdlParser(SourceFile("t.vhd", text), collector)
        expr = parser.parse_expression()
        assert parser.texts[parser.pos] == "" and not collector.diagnostics
        return expr

    @pytest.mark.parametrize("mark", ["unsigned", "signed", "std_logic_vector"])
    def test_vector_mark_parses_like_the_conversion(self, mark):
        qualified = self.parse(f'{mark}\'("0011") + a')
        converted = self.parse(f'{mark}("0011") + a')
        call, conversion = qualified.lhs, converted.lhs
        assert isinstance(call, ast.Call) and call.name == conversion.name
        # the same operand, one character later for the tick
        (operand,), (converted_operand,) = call.args, conversion.args
        assert operand.value == converted_operand.value == "0011"
        assert operand.span.start_offset == converted_operand.span.start_offset + 1
        assert call.span.end_offset == len(mark) + 9

    def test_scalar_mark_is_its_operand(self):
        expr = self.parse("std_logic'('1')")
        assert isinstance(expr, ast.CharLiteral) and expr.value == "1"
        assert isinstance(self.parse("integer'(3)"), ast.IntLiteral)

    def test_tick_after_a_name_opens_the_operand(self):
        kinds = [t.kind for t in lex("std_logic'('1')")]
        assert kinds[:3] == [TokenKind.IDENT, TokenKind.PUNCT, TokenKind.PUNCT]
        assert TokenKind.CHAR in kinds
        # with a space in between, '(' is still a character literal
        assert [t.text for t in lex("c = '('")][2] == "'('"
        assert [t.kind for t in lex("x '('")][1] is TokenKind.CHAR

    def test_attributes_still_parse(self):
        expr = self.parse("clk'event")
        assert isinstance(expr, ast.Attribute) and expr.attr == "event"

    def test_other_names_keep_the_syntax_error(self):
        collector = DiagnosticCollector()
        parser = VhdlParser(SourceFile("t.vhd", "foo'(a)"), collector)
        parser.parse_expression()
        assert parser.texts[parser.pos] == "'"

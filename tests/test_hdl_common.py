"""Tests for the shared HDL infrastructure (source, diagnostics, tokens)."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.hdl.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
    render_vivado_log,
)
from repro.hdl.source import SourceFile, SourceLocation, SourceSpan
from repro.hdl.tokens import Token, TokenKind
from repro.verilog.lexer import VerilogLexer
from repro.vhdl.lexer import VhdlLexer


class TestSourceFile:
    def setup_method(self):
        self.source = SourceFile("x.v", "line one\nline two\nline three")

    def test_location_start(self):
        loc = self.source.location(0)
        assert (loc.line, loc.column) == (1, 1)

    def test_location_second_line(self):
        offset = self.source.text.index("two")
        loc = self.source.location(offset)
        assert (loc.line, loc.column) == (2, 6)

    def test_location_past_end_clamps(self):
        loc = self.source.location(10_000)
        assert loc.line == 3

    def test_location_negative_rejected(self):
        with pytest.raises(ValueError):
            self.source.location(-1)

    def test_line_text(self):
        assert self.source.line_text(2) == "line two"

    def test_line_text_last_line(self):
        assert self.source.line_text(3) == "line three"

    def test_line_text_out_of_range(self):
        with pytest.raises(ValueError):
            self.source.line_text(9)

    def test_snippet_single_line(self):
        offset = self.source.text.index("two")
        snippet = self.source.snippet(SourceSpan(offset, offset + 3))
        assert snippet == "line two"

    def test_span_text(self):
        offset = self.source.text.index("two")
        assert self.source.span_text(SourceSpan(offset, offset + 3)) == "two"

    @given(st.text(alphabet="ab\n", max_size=200), st.integers(0, 220))
    def test_location_is_consistent_with_line_text(self, text, offset):
        source = SourceFile("t", text)
        offset = min(offset, len(text))
        loc = source.location(offset)
        # the located line must contain the offset position
        line = source.line_text(loc.line)
        assert loc.column - 1 <= len(line) + 1

    def test_line_index_is_built_on_first_use(self):
        class CountingText(str):
            finds = 0

            def find(self, *args):
                CountingText.finds += 1
                return super().find(*args)

        source = SourceFile("t", CountingText("a\nb\nc"))
        assert CountingText.finds == 0  # construction scans nothing
        assert source.location(4).line == 3
        assert CountingText.finds == 3  # two newlines, then the miss
        source.location(2)
        assert CountingText.finds == 3  # the index is kept

    @pytest.mark.parametrize("clone", [
        lambda value: pickle.loads(pickle.dumps(value)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_translate_offsets_alike(self, clone):
        fresh = SourceFile("x.v", self.source.text)
        indexed = SourceFile("x.v", self.source.text)
        indexed.location(0)
        offset = self.source.text.index("three")
        for source in (fresh, indexed):
            twin = clone(source)
            assert twin == source
            assert twin.location(offset) == SourceLocation(3, 6)
            assert twin.line_text(2) == "line two"

    @given(st.text(alphabet="ab\n\r", max_size=200))
    def test_line_index_marks_every_newline(self, text):
        starts = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
        source = SourceFile("t", text)
        assert source.line_count == len(starts)
        assert [source.location(start).line for start in starts] == list(
            range(1, len(starts) + 1)
        )


class TestSourceSpan:
    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            SourceSpan(5, 3)

    def test_is_an_immutable_tuple_value(self):
        span = SourceSpan(3, 7)
        assert span == (3, 7) and hash(span) == hash((3, 7))
        assert repr(span) == "SourceSpan(start_offset=3, end_offset=7)"
        with pytest.raises(AttributeError):
            span.start_offset = 0

    def test_merge(self):
        merged = SourceSpan(3, 5).merge(SourceSpan(10, 12))
        assert (merged.start_offset, merged.end_offset) == (3, 12)

    def test_length(self):
        assert SourceSpan(3, 7).length == 4


class TestDiagnostics:
    def test_collector_counts(self):
        collector = DiagnosticCollector()
        collector.error("C1", "bad thing")
        collector.warning("C2", "odd thing")
        assert collector.error_count == 1
        assert collector.warning_count == 1
        assert collector.has_errors

    def test_emit_with_location(self):
        source = SourceFile("a.v", "module m;\nwire w\nendmodule")
        collector = DiagnosticCollector()
        offset = source.text.index("wire")
        diag = collector.error(
            "VRFC 10-1412", "missing semicolon",
            source=source, span=SourceSpan(offset, offset + 4),
        )
        assert diag.location.line == 2
        assert "wire w" in diag.snippet
        assert "[a.v:2]" in diag.render()

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def test_extend_merges(self):
        a, b = DiagnosticCollector(), DiagnosticCollector()
        a.error("X", "one")
        b.error("Y", "two")
        a.extend(b)
        assert a.error_count == 2

    def test_render_vivado_log_failure_summary(self):
        collector = DiagnosticCollector()
        collector.error("VRFC 10-1412", "syntax error near ';'")
        log = render_vivado_log(collector.diagnostics, tool="xvlog")
        assert "ERROR: [VRFC 10-1412]" in log
        assert "Analysis failed with 1 error(s)" in log

    def test_render_vivado_log_success_summary(self):
        log = render_vivado_log([], tool="xvhdl")
        assert "Analysis succeeded" in log

    def test_snippet_lines_prefixed(self):
        source = SourceFile("a.v", "assign y = a &;")
        collector = DiagnosticCollector()
        collector.error(
            "VRFC 10-1412", "boom", source=source, span=SourceSpan(0, 6)
        )
        log = render_vivado_log(collector.diagnostics)
        assert "    > assign y = a &;" in log


class TestTokens:
    """The key rule: keywords, operators and punctuation are keyed by their
    text, every other token by its kind."""

    def test_keyword_key_is_its_text(self):
        token = Token(TokenKind.KEYWORD, "module", SourceSpan(0, 6))
        assert token.key == "module"
        assert token.key in {"module", "endmodule"}
        assert token.key not in {"wire"}

    def test_operator_and_punctuation_keys_are_their_text(self):
        assert Token(TokenKind.OPERATOR, "<=", SourceSpan(0, 2)).key == "<="
        assert Token(TokenKind.PUNCT, "(", SourceSpan(0, 1)).key == "("

    def test_ident_key_is_its_kind(self):
        token = Token(TokenKind.IDENT, "module_x", SourceSpan(0, 8))
        assert token.key is TokenKind.IDENT
        # an escaped identifier that spells a keyword is still an identifier
        escaped = Token(TokenKind.IDENT, "end", SourceSpan(0, 4))
        assert escaped.key is TokenKind.IDENT and escaped.key != "end"

    @pytest.mark.parametrize("lexer,text", [
        (VerilogLexer, "module m; \\end x <= 4'b1; \\( $display(\"a\"); endmodule"),
        (VhdlLexer, "ENTITY e IS port(a : in bit); END; x <= '1' after 2 ns;"),
    ])
    def test_stream_keys_follow_the_rule(self, lexer, text):
        stream = lexer(SourceFile("t", text), DiagnosticCollector()).tokenize()
        tokens = stream.tokens()
        assert len(stream) == len(tokens) and tokens[-1].kind is TokenKind.EOF
        assert stream.keys == [token.key for token in tokens]
        assert stream.kinds == [token.kind for token in tokens]

"""Verilog lexer: the token table of the shared scanner.

Produces a :class:`~repro.hdl.scanner.TokenStream`. Lexical errors (unterminated
strings/comments, malformed based literals, stray characters) are reported
through the shared :class:`~repro.hdl.diagnostics.DiagnosticCollector` with
``VRFC``-style codes so they surface in the compile log exactly like parser
errors do.
"""

from __future__ import annotations

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.scanner import (
    ESCAPED, SKIP, WORD, LexError, TokenStream, TokenTable,
)
from repro.hdl.source import SourceFile
from repro.hdl.tokens import Token, TokenKind

VERILOG_KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case casez
    casex endcase default for while repeat forever posedge negedge or and not
    function endfunction task endtask generate endgenerate genvar signed
    unsigned deassign disable wait fork join
    """.split()
)

_SIZE = r"[0-9][0-9_]*'[sS]?"  # decimal size, tick and signed marker
_BASE = "[bBdDhHoO]"

#: (rule name, pattern, action), tried in this order at every position
VERILOG_RULES = [
    # line comment, block comment, compiler directive (`timescale ...)
    ("comment", r"//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|`[^\n]*", SKIP),
    ("open_comment", r"/\*[\s\S]*",
     LexError("unterminated block comment", token=False)),
    ("word", r"[A-Za-z_][A-Za-z0-9_$]*", WORD),
    # escaped identifier: up to the next whitespace character
    ("escaped", r"\\[\x00-\x08\x0e-\x1b!-\x7f]*", ESCAPED),
    ("based", rf"(?:{_SIZE}|'){_BASE}[A-Za-z0-9_?]+", TokenKind.BASED_NUMBER),
    ("no_digits", rf"(?:{_SIZE}|'){_BASE}",
     LexError("based literal is missing digits")),
    ("bad_base", _SIZE,
     LexError("invalid base specifier {next!r} in literal")),
    ("number", "[0-9][0-9_]*", TokenKind.NUMBER),
    # a backslash escapes any character but a newline
    ("string", r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"', TokenKind.STRING),
    ("open_string", r'"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*\\?',
     LexError("unterminated string literal")),
    ("system", r"\$[A-Za-z0-9_]+", TokenKind.SYSTEM_ID),
    ("dollar", r"\$", LexError("expected system task name after '$'")),
    # longest first, so maximal munch
    ("operator",
     r"<<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||\*\*|\+:|-:|[-+*/%&|^~!<>=?]",
     TokenKind.OPERATOR),
    ("punct", r"[()\[\]{};:,.#@]", TokenKind.PUNCT),
    ("unexpected", r"[\s\S]", LexError("unexpected character {text!r}")),
]

VERILOG_TABLE = TokenTable(
    VERILOG_RULES, keywords=VERILOG_KEYWORDS, fold_case=False,
    error_code="VRFC 10-4982",
)


class VerilogLexer:
    """Tokenizes one Verilog source with :data:`VERILOG_TABLE`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        self.source = source
        self.collector = collector

    def tokenize(self) -> TokenStream:
        return VERILOG_TABLE.scan(self.source, self.collector)


def lex_verilog(
    source: SourceFile, collector: DiagnosticCollector | None = None
) -> list[Token]:
    """Tokenize a source file; convenience wrapper used by tests and tools."""
    collector = collector if collector is not None else DiagnosticCollector()
    return VerilogLexer(source, collector).tokenize().tokens()

"""VHDL lexer: the token table of the shared scanner.

Case-insensitive keywords (stored lower-cased), ``--`` comments, character
literals (``'0'``), bit-string literals (``"0101"``, ``x"a5"``), and the VHDL
operator set. Shares the token model with the Verilog lexer so the parsers
look alike.
"""

from __future__ import annotations

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.scanner import (
    BIT_STRING, SKIP, WORD, LexError, TokenStream, TokenTable,
)
from repro.hdl.source import SourceFile
from repro.hdl.tokens import Token, TokenKind

VHDL_KEYWORDS = frozenset(
    """
    abs access after alias all and architecture array assert attribute begin
    block body buffer bus case component configuration constant disconnect
    downto else elsif end entity exit file for function generate generic
    group guarded if impure in inertial inout is label library linkage
    literal loop map mod nand new next nor not null of on open or others
    out package port postponed procedure process pure range record register
    reject rem report return rol ror select severity signal shared sla sll
    sra srl subtype then to transport type unaffected units until use
    variable wait when while with xnor xor
    """.split()
)

_UNTERMINATED = "unterminated string literal"

#: (rule name, pattern, action), tried in this order at every position
VHDL_RULES = [
    ("comment", r"--[^\n]*", SKIP),
    # x"a5", b"0101", o"17"; an unterminated one is reported from its quote
    ("bit_string", r'[xXbBoO]"[^"\n]*"', BIT_STRING),
    ("open_bit_string", r'[xXbBoO]"[^"\n]*', LexError(_UNTERMINATED, skip=1)),
    ("word", "[A-Za-z][A-Za-z0-9_]*", WORD),
    # a real literal is lexed whole and rejected by the parser
    ("number", r"[0-9][0-9_]*(?:\.[0-9]*)?", TokenKind.NUMBER),
    ("string", r'"[^"\n]*"', TokenKind.STRING),
    ("open_string", r'"[^"\n]*', LexError(_UNTERMINATED)),
    # a tick right after a name and before '(' opens a qualified expression,
    # so std_logic'('1') is no character literal '('
    ("qualify", r"'(?<=[A-Za-z0-9_]')(?=\()", TokenKind.PUNCT),
    # '0' is a character literal; any other tick is an attribute tick (punct)
    ("char", r"'[\s\S]'", TokenKind.CHAR),
    ("operator", r"\*\*|:=|=>|/=|<=|>=|<>|[=<>+\-*/&|]", TokenKind.OPERATOR),
    ("punct", r"[()\[\];:,.']", TokenKind.PUNCT),
    ("unexpected", r"[\s\S]", LexError("unexpected character {text!r}")),
]

VHDL_TABLE = TokenTable(
    VHDL_RULES, keywords=VHDL_KEYWORDS, fold_case=True,
    error_code="VRFC 10-1491",
)


class VhdlLexer:
    """Tokenizes one VHDL source with :data:`VHDL_TABLE`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        self.source = source
        self.collector = collector

    def tokenize(self) -> TokenStream:
        return VHDL_TABLE.scan(self.source, self.collector)


def lex_vhdl(
    source: SourceFile, collector: DiagnosticCollector | None = None
) -> list[Token]:
    """Tokenize VHDL text; convenience wrapper used by tests and tools."""
    collector = collector if collector is not None else DiagnosticCollector()
    return VhdlLexer(source, collector).tokenize().tokens()

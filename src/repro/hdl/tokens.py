"""Token machinery shared by the Verilog and VHDL lexers."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.hdl.source import SourceSpan


class TokenKind(enum.Enum):
    """Language-independent token categories.

    Keyword sets differ per language; the lexers classify identifiers into
    ``KEYWORD`` using their own tables while reusing this kind enumeration.
    """

    IDENT = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    BASED_NUMBER = "based number"  # Verilog 4'b1010 / VHDL x"A5"
    STRING = "string"
    CHAR = "character literal"  # VHDL '0', '1'
    OPERATOR = "operator"
    PUNCT = "punctuation"
    SYSTEM_ID = "system identifier"  # Verilog $display etc.
    EOF = "end of file"
    ERROR = "invalid token"


_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR
_PUNCT = TokenKind.PUNCT


class Token(NamedTuple):
    """One lexed token with its source span and raw text (an immutable tuple)."""

    kind: TokenKind
    text: str
    span: SourceSpan

    def is_kw(self, *names: str) -> bool:
        """True when this token is one of the given keywords.

        VHDL keyword comparison is case-insensitive; the VHDL lexer stores
        keyword text lower-cased so a plain comparison works for both languages.
        """
        return self.kind is _KEYWORD and self.text in names

    def is_op(self, *ops: str) -> bool:
        kind = self.kind
        return (kind is _OPERATOR or kind is _PUNCT) and self.text in ops

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"

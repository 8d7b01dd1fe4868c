"""Token machinery shared by the Verilog and VHDL lexers."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.hdl.source import SourceSpan


class TokenKind(enum.Enum):
    """Language-independent token categories.

    Keyword sets differ per language; the lexers classify identifiers into
    ``KEYWORD`` using their own tables while reusing this kind enumeration.
    Members hash by identity: the parsers look kinds up in sets and dicts
    keyed on :attr:`Token.key`, and ``Enum.__hash__`` is a Python-level call.
    """

    __hash__ = object.__hash__

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
    """One lexed token with its source span and raw text (an immutable tuple).

    The parsers read a :class:`~repro.hdl.scanner.TokenStream` instead;
    :meth:`TokenStream.tokens <repro.hdl.scanner.TokenStream.tokens>` lists
    its tokens as these tuples for tests and tools.
    """

    kind: TokenKind
    text: str
    span: SourceSpan

    @property
    def key(self) -> str | TokenKind:
        """What the parsers test and dispatch on.

        The text of a keyword, an operator or a punctuation mark, and the
        kind of any other token, so an escaped Verilog identifier that
        spells a keyword (``\\end``) stays an identifier. The VHDL lexer
        stores keyword text lower-cased, so keys compare case-insensitively.
        """
        kind = self.kind
        if kind is _KEYWORD or kind is _OPERATOR or kind is _PUNCT:
            return self.text
        return kind

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"

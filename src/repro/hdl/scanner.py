"""Table-driven scanner shared by the Verilog and VHDL lexers.

A language is a :class:`TokenTable`: an ordered list of rules, each a named
regular expression plus what a match of it means — a token kind, trivia to
skip, or a lexical error with its ``VRFC`` message. The rules compile into one
master pattern of named alternatives tried in table order, so the first rule
that matches at a position wins; a final catch-all rule makes every position
match something, and the scanner walks the text match by match.

Trivia (whitespace, comments, directives) are alternatives of their own rather
than a ``(?:trivia)*`` prefix of every token: a failing token after such a
prefix would make the regex engine backtrack through every way of splitting
the trivia run. Every rule is written so its match is unambiguous, which keeps
scanning linear in the input (``tests/test_scanner_reference.py`` guards it).

Identifiers, numbers and every other token are ASCII, as IEEE 1364 and 1076
define them: outside strings, comments and VHDL character literals a
non-ASCII character is an ``unexpected character`` error.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind

_new = tuple.__new__  # builds Token/SourceSpan without re-checking a match's span


class LexError(NamedTuple):
    """A rule whose match is a lexical error.

    ``message`` is a :meth:`str.format` template; ``{next!r}`` is the character
    after the match (NUL at end of input). The error span and the ERROR
    token skip the first ``skip`` characters of the match; with ``token``
    false the error is reported without a token.
    """

    message: str
    skip: int = 0
    token: bool = True


#: the action of a rule that produces no token
SKIP = "skip"
#: the action of the identifier rule: IDENT, or KEYWORD when in the table
WORD = "word"
#: escaped identifier: IDENT without its leading backslash
ESCAPED = "escaped"
#: VHDL bit-string literal: BASED_NUMBER with a lower-cased base prefix
BIT_STRING = "bit-string"


class TokenTable:
    """One language's lexical grammar, compiled for :meth:`scan`."""

    def __init__(self, rules, *, keywords, fold_case: bool, error_code: str):
        self.master = re.compile(
            "|".join(f"(?P<{name}>{pattern})" for name, pattern, _ in rules)
        )
        #: rule action by group index (groups are numbered 1..len(rules))
        self.actions = [None] + [action for _, _, action in rules]
        self.keywords = frozenset(keywords)
        self.fold_case = fold_case
        self.error_code = error_code

    def scan(
        self, source: SourceFile, collector: DiagnosticCollector
    ) -> list[Token]:
        text = source.text
        actions = self.actions
        keywords = self.keywords
        fold_case = self.fold_case
        token_kind = TokenKind
        tokens: list[Token] = []
        append = tokens.append
        for match in self.master.finditer(text):
            action = actions[match.lastindex]
            if action is SKIP:
                continue
            if action.__class__ is token_kind:
                span = _new(SourceSpan, match.span())
                append(_new(Token, (action, match.group(), span)))
            elif action is WORD:
                word = match.group()
                key = word.lower() if fold_case else word
                span = _new(SourceSpan, match.span())
                if key in keywords:
                    append(_new(Token, (token_kind.KEYWORD, key, span)))
                else:
                    append(_new(Token, (token_kind.IDENT, word, span)))
            elif action is ESCAPED:
                span = _new(SourceSpan, match.span())
                append(_new(Token, (token_kind.IDENT, match.group()[1:], span)))
            elif action is BIT_STRING:
                word = match.group()
                word = word[0].lower() + word[1:]
                span = _new(SourceSpan, match.span())
                append(_new(Token, (token_kind.BASED_NUMBER, word, span)))
            else:
                token = self._error(action, match, source, collector)
                if token is not None:
                    append(token)
        end = len(text)
        append(_new(Token, (token_kind.EOF, "", _new(SourceSpan, (end, end)))))
        return tokens

    def _error(self, rule: LexError, match, source, collector) -> Token | None:
        text = source.text
        start = match.start() + rule.skip
        end = match.end()
        following = text[end] if end < len(text) else "\0"
        span = SourceSpan(start, end)
        collector.error(
            self.error_code,
            rule.message.format(next=following, text=text[start:end]),
            source=source,
            span=span,
        )
        if not rule.token:
            return None
        return Token(TokenKind.ERROR, text[start:end], span)

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
the trivia run. Only a run of plain whitespace (:data:`_WHITESPACE`, both
languages' own) is matched in front of the alternatives, which cuts the
matches on the suite's testbenches by 42% and cannot backtrack that way: the
catch-all rule matches wherever a character is left, so the run gives back at
most its last character, at the end of the text, where the ``space`` rule the
table puts first takes it. Every rule is written so its match is unambiguous,
which keeps scanning linear in the input (``tests/test_scanner_reference.py``
guards it).

Identifiers, numbers and every other token are ASCII, as IEEE 1364 and 1076
define them: outside strings, comments and VHDL character literals a
non-ASCII character is an ``unexpected character`` error.

A scan makes no object per token: it returns one :class:`TokenStream` of
parallel lists, and the parsers build a :class:`~repro.hdl.source.SourceSpan`
only where a syntax tree node or a diagnostic keeps one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind


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

#: the whitespace of both languages: a run of it is matched in front of every
#: rule, and every table starts with a rule that skips it
_WHITESPACE = "[ \t\r\n]"

_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_OPERATOR = TokenKind.OPERATOR
_PUNCT = TokenKind.PUNCT


class TokenStream:
    """The tokens of one source as parallel lists, ending in one EOF token.

    Token ``i`` has kind ``kinds[i]``, text ``texts[i]``, the source span
    ``starts[i]``..``ends[i]`` and the key ``keys[i]`` that the parsers test
    and dispatch on (:attr:`Token.key`: the text of a keyword, an operator
    or a punctuation mark, the kind of any other token). ``len()`` is the
    token count, EOF included.
    """

    __slots__ = ("kinds", "keys", "texts", "starts", "ends")

    def __init__(self):
        self.kinds: list[TokenKind] = []
        self.keys: list[str | TokenKind] = []
        self.texts: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []

    def __len__(self) -> int:
        return len(self.keys)

    def tokens(self) -> list[Token]:
        """The stream as :class:`Token` tuples, for tests and tools."""
        return [
            Token(kind, text, SourceSpan(start, end))
            for kind, text, start, end in zip(
                self.kinds, self.texts, self.starts, self.ends
            )
        ]


class TokenTable:
    """One language's lexical grammar, compiled for :meth:`scan`.

    ``rules`` need no whitespace rule: the table puts one first.
    """

    def __init__(self, rules, *, keywords, fold_case: bool, error_code: str):
        rules = [("space", _WHITESPACE + "+", SKIP), *rules]
        self.master = re.compile(_WHITESPACE + "*(?:" + "|".join(
            f"(?P<{name}>{pattern})" for name, pattern, _ in rules
        ) + ")")
        #: rule action by group index (groups are numbered 1..len(rules))
        self.actions = [None] + [action for _, _, action in rules]
        self.keywords = frozenset(keywords)
        self.fold_case = fold_case
        self.error_code = error_code

    def scan(
        self, source: SourceFile, collector: DiagnosticCollector
    ) -> TokenStream:
        text = source.text
        actions = self.actions
        keywords = self.keywords
        fold_case = self.fold_case
        token_kind = TokenKind
        stream = TokenStream()
        add_kind = stream.kinds.append
        add_key = stream.keys.append
        add_text = stream.texts.append
        add_start = stream.starts.append
        add_end = stream.ends.append
        for match in self.master.finditer(text):
            rule = match.lastindex
            action = actions[rule]
            if action is SKIP:
                continue
            word = match.group(rule)
            start, end = match.span(rule)
            if action is WORD:
                key = word.lower() if fold_case else word
                if key in keywords:
                    add_kind(_KEYWORD)
                    word = key
                else:
                    add_kind(_IDENT)
                    key = _IDENT
            elif action.__class__ is token_kind:
                add_kind(action)
                key = word if action is _OPERATOR or action is _PUNCT else action
            elif action is ESCAPED:
                add_kind(_IDENT)
                key = _IDENT
                word = word[1:]
            elif action is BIT_STRING:
                add_kind(token_kind.BASED_NUMBER)
                key = token_kind.BASED_NUMBER
                word = word[0].lower() + word[1:]
            else:
                start += action.skip
                word = word[action.skip:]
                self._error(action, start, end, source, collector)
                if not action.token:
                    continue
                add_kind(token_kind.ERROR)
                key = token_kind.ERROR
            add_key(key)
            add_text(word)
            add_start(start)
            add_end(end)
        end = len(text)
        add_kind(token_kind.EOF)
        add_key(token_kind.EOF)
        add_text("")
        add_start(end)
        add_end(end)
        return stream

    def _error(self, rule: LexError, start: int, end: int, source,
               collector) -> None:
        text = source.text
        following = text[end] if end < len(text) else "\0"
        collector.error(
            self.error_code,
            rule.message.format(next=following, text=text[start:end]),
            source=source,
            span=SourceSpan(start, end),
        )

"""Token cursor shared by the Verilog and VHDL recursive-descent parsers.

Both parsers walk a :class:`~repro.hdl.scanner.TokenStream` ending in one
EOF token, and name a token by its index. :meth:`_advance` never moves past
that EOF, so the current token is always ``pos`` and only lookahead needs
clamping. The parsers test and dispatch on ``keys[pos]`` (set membership
and dicts keyed on :attr:`~repro.hdl.tokens.Token.key`), read ``texts`` for
names and values and ``kinds`` where a key is a keyword's text, and build
a :class:`~repro.hdl.source.SourceSpan` with :meth:`_span` only where a
syntax tree node or a diagnostic keeps one.

The cursor also enforces the expression and statement depth bounds.
Parsing, analysis, elaboration and the compiled simulation closures all
recurse over expressions and statements, so one expression nested or
chained deeper than :data:`MAX_EXPR_DEPTH`, or statements nested deeper
than :data:`MAX_STMT_DEPTH`, would exhaust Python's stack somewhere
downstream; the parser reports either as a named diagnostic instead.
"""

from __future__ import annotations

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.scanner import TokenStream
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import TokenKind

_IDENT = TokenKind.IDENT
_new = tuple.__new__  # builds a SourceSpan without re-checking its order

#: deepest expression the frontends accept, in levels below the outermost
#: expression: sub-expressions open at once while parsing (parentheses,
#: selects, concatenations, call arguments, unary operators) and operators
#: on the longest path of the syntax tree, so ``((a))``, ``~~a`` and
#: ``a + a + a`` are all two levels deep. At this depth parsing, analysis,
#: elaboration and simulation stay within Python's default recursion limit
#: (``tests/test_expression_depth.py``).
MAX_EXPR_DEPTH = 128

EXPR_TOO_DEEP = (
    f"expression is nested or chained more than {MAX_EXPR_DEPTH} levels deep"
)

#: deepest statement nesting the frontends accept, in levels below the
#: outermost statement of a body (an ``always``/``initial`` block or a VHDL
#: process): statements open at once, so ``begin begin x = 1; end end`` and
#: ``if (a) if (b) x = 1;`` are both two levels deep. At this depth, holding
#: an expression :data:`MAX_EXPR_DEPTH` levels deep, parsing, analysis,
#: elaboration, compiling the body at its first start and simulation stay
#: within Python's default recursion limit (``tests/test_expression_depth.py``)
#: with about a hundred frames to spare for the caller's own stack. Each
#: level costs the VHDL parser three frames, so that spare shrinks to about
#: 65 frames at 48 levels and 15 at 64. The suite and fuzz programs nest
#: at most 7 levels deep.
MAX_STMT_DEPTH = 32

STMT_TOO_DEEP = f"statements are nested more than {MAX_STMT_DEPTH} levels deep"


class ParseError(Exception):
    """Internal: unwinds to the nearest recovery point."""


def tree_depth(root, node_type) -> int:
    """Levels below the root of a syntax tree, walked without recursion."""
    deepest = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        values = list(vars(node).values())
        while values:
            value = values.pop()
            if isinstance(value, node_type):
                stack.append((value, depth + 1))
            elif isinstance(value, tuple):
                values.extend(value)
    return deepest


class TokenCursor:
    """Token plumbing and the expression depth bound of both parsers."""

    _CODE_SYNTAX = "VRFC 10-1412"
    _CODE_UNSUPPORTED = "VRFC 10-2951"

    def __init__(self, source: SourceFile, collector: DiagnosticCollector,
                 stream: TokenStream):
        self.source = source
        self.collector = collector
        self.kinds = stream.kinds
        self.keys = stream.keys
        self.texts = stream.texts
        self.starts = stream.starts
        self.ends = stream.ends
        #: index of the EOF token, the last one
        self.eof = len(stream) - 1
        self.pos = 0
        #: sub-expressions open at the cursor
        self._depth = 0
        #: statements open at the cursor, and whether the outermost one has
        #: already reported being too deep
        self._stmt_depth = 0
        self._stmt_too_deep = False

    def _next_key(self):
        """The key of the token after the cursor (EOF's at the end)."""
        return self.keys[min(self.pos + 1, self.eof)]

    def _advance(self) -> int:
        """Consume the token at the cursor (never the EOF); its index."""
        pos = self.pos
        if pos < self.eof:
            self.pos = pos + 1
        return pos

    def _at_eof(self) -> bool:
        return self.pos == self.eof

    def _span(self, first: int, last: int | None = None) -> SourceSpan:
        """The span of token ``first``, or from it through token ``last``."""
        return _new(SourceSpan, (
            self.starts[first], self.ends[first if last is None else last]
        ))

    def _span_to(self, first: int, node) -> SourceSpan:
        """From token ``first`` through a syntax tree node parsed after it."""
        return _new(SourceSpan, (self.starts[first], node.span.end_offset))

    def _describe(self, index: int) -> str:
        if index == self.eof:
            return "end of file"
        return f"'{self.texts[index]}'"

    def _error(self, message: str, token: int | None = None,
               code: str = _CODE_SYNTAX) -> ParseError:
        token = self.pos if token is None else token
        start, end = self.starts[token], self.ends[token]
        span = SourceSpan(start, end if end > start else start + 1)
        self.collector.error(code, message, source=self.source, span=span)
        return ParseError(message)

    def _expect(self, key: str, context: str) -> int:
        """Consume the keyword, operator or punctuation ``key``; its index."""
        pos = self.pos
        if self.keys[pos] == key:
            self.pos = pos + 1
            return pos
        raise self._error(
            f"syntax error near {self._describe(pos)}: "
            f"expected '{key}' {context}",
            pos,
        )

    def _expect_ident(self, context: str) -> int:
        pos = self.pos
        if self.keys[pos] is _IDENT:
            self.pos = pos + 1
            return pos
        raise self._error(
            f"syntax error near {self._describe(pos)}: "
            f"expected an identifier {context}",
            pos,
        )

    # -- expression depth ----------------------------------------------------

    def _nest(self) -> int:
        """Open one sub-expression; returns the depth to restore on exit."""
        depth = self._depth
        if depth > MAX_EXPR_DEPTH:
            raise self._error(EXPR_TOO_DEEP, code=self._CODE_UNSUPPORTED)
        self._depth = depth + 1
        return depth

    def _skip_too_deep(self, skip) -> SourceSpan | None:
        """Skip the statement here if it is nested too deep; its span, or None.

        Called as a statement starts, at the current statement depth. Past
        :data:`MAX_STMT_DEPTH` it reports :data:`STMT_TOO_DEEP` and *skip*
        consumes the whole statement without parsing it, so the enclosing
        statements still close where they should. One outermost statement
        reports once, however many of its statements are too deep.
        """
        depth = self._stmt_depth
        if not depth:
            self._stmt_too_deep = False
        if depth <= MAX_STMT_DEPTH:
            return None
        first = self.pos
        if not self._stmt_too_deep:
            self._stmt_too_deep = True
            self._error(STMT_TOO_DEEP, first, code=self._CODE_UNSUPPORTED)
        skip()
        last = max(self.pos - 1, 0)
        return self._span(first).merge(self._span(last))

    def _check_tree(self, expr, start: int, node_type) -> None:
        """Bound the tree of an outermost expression parsed from ``start``.

        Every level of a tree takes a token, so only long expressions are
        walked.
        """
        if (self.pos - start > MAX_EXPR_DEPTH + 1
                and tree_depth(expr, node_type) > MAX_EXPR_DEPTH):
            raise self._error(EXPR_TOO_DEEP, start, code=self._CODE_UNSUPPORTED)

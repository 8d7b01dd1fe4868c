"""Source file abstraction with line/column bookkeeping.

A :class:`SourceFile` owns the full text of one HDL file and provides O(log n)
offset-to-line/column translation. Locations and spans are value objects used
throughout lexing, parsing, semantic analysis, and diagnostic rendering.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class _Span(NamedTuple):
    start_offset: int
    end_offset: int


class SourceSpan(_Span):
    """A half-open [start, end) character range within one file.

    An immutable tuple; construction rejects an end before the start.
    """

    __slots__ = ()

    def __new__(cls, start_offset: int, end_offset: int) -> "SourceSpan":
        if end_offset < start_offset:
            raise ValueError(
                f"span end {end_offset} precedes start {start_offset}"
            )
        return tuple.__new__(cls, (start_offset, end_offset))

    @property
    def length(self) -> int:
        return self.end_offset - self.start_offset

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both operands."""
        start, end = self
        other_start, other_end = other
        return tuple.__new__(SourceSpan, (
            start if start < other_start else other_start,
            end if end > other_end else other_end,
        ))


@dataclass
class SourceFile:
    """An HDL source file plus derived line-offset index.

    The index is built on first use, so a file whose offsets are never
    translated (a parse that reports nothing) never scans its text.
    """

    name: str
    text: str

    @cached_property
    def _line_starts(self) -> list[int]:
        starts = [0]
        find = self.text.find
        index = find("\n")
        while index >= 0:
            starts.append(index + 1)
            index = find("\n", index + 1)
        return starts

    @property
    def line_count(self) -> int:
        return len(self._line_starts)

    def location(self, offset: int) -> SourceLocation:
        """Translate a character offset into a 1-based line/column pair."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        offset = min(offset, len(self.text))
        line_index = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_index] + 1
        return SourceLocation(line=line_index + 1, column=column)

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line number, without the newline."""
        if not 1 <= line <= self.line_count:
            raise ValueError(f"line {line} out of range 1..{self.line_count}")
        start = self._line_starts[line - 1]
        if line == self.line_count:
            end = len(self.text)
        else:
            end = self._line_starts[line] - 1
        return self.text[start:end]

    def snippet(self, span: SourceSpan, context: int = 0) -> str:
        """Return the source lines covered by *span* plus *context* lines around."""
        first = max(1, self.location(span.start_offset).line - context)
        last_offset = max(span.start_offset, span.end_offset - 1)
        last = min(self.line_count, self.location(last_offset).line + context)
        return "\n".join(self.line_text(n) for n in range(first, last + 1))

    def locate(self, span: SourceSpan) -> tuple[SourceLocation, str]:
        """``(location(span.start_offset), snippet(span))`` from one pass:
        the lines a span covers are one slice of the text."""
        start, end = span
        if start < 0:
            raise ValueError(f"negative offset {start}")
        size = len(self.text)
        starts = self._line_starts
        offset = start if start < size else size
        first = bisect.bisect_right(starts, offset) - 1
        last_offset = end - 1 if end - 1 > start else start
        if last_offset > size:
            last_offset = size
        last = bisect.bisect_right(starts, last_offset, first) - 1
        stop = starts[last + 1] - 1 if last + 1 < len(starts) else size
        return (
            SourceLocation(first + 1, offset - starts[first] + 1),
            self.text[starts[first]:stop],
        )

    def span_text(self, span: SourceSpan) -> str:
        return self.text[span.start_offset : span.end_offset]

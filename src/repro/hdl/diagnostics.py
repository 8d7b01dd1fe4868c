"""Diagnostics: structured compiler/simulator messages and log rendering.

Diagnostics carry a severity, a tool-style message code (e.g. ``VRFC 10-91``,
mimicking Vivado's Verilog RTL front-end codes), a human message, and a source
location. :func:`render_vivado_log` turns a batch of diagnostics into the log
text the Review Agent consumes — the same information channel the paper's
agents read from Vivado.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.hdl.source import SourceFile, SourceLocation, SourceSpan


class Severity(enum.IntEnum):
    """Message severity, ordered so ``max()`` yields the worst."""

    NOTE = 0
    INFO = 1
    WARNING = 2
    ERROR = 3
    FATAL = 4

    @property
    def label(self) -> str:
        return _LABELS[self]


#: each severity's log label, indexed by severity
_LABELS = tuple(severity.name for severity in Severity)
_ERROR = Severity.ERROR
_WARNING = Severity.WARNING


@dataclass(frozen=True)
class Diagnostic:
    """One structured message emitted by a frontend or the simulator."""

    severity: Severity
    code: str
    message: str
    file_name: str = "<unknown>"
    location: SourceLocation | None = None
    snippet: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity >= _ERROR

    def render(self) -> str:
        """Render one Vivado-style log line."""
        where = ""
        if self.location is not None:
            where = f" [{self.file_name}:{self.location.line}]"
        return f"{_LABELS[self.severity]}: [{self.code}] {self.message}{where}"


@dataclass
class DiagnosticCollector:
    """Accumulates diagnostics during a compile or analysis pass."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def emit(
        self,
        severity: Severity,
        code: str,
        message: str,
        *,
        source: SourceFile | None = None,
        span: SourceSpan | None = None,
    ) -> Diagnostic:
        location = None
        snippet = ""
        file_name = "<unknown>"
        if source is not None:
            file_name = source.name
            if span is not None:
                location, snippet = source.locate(span)
        diag = Diagnostic(severity, code, message, file_name, location, snippet)
        self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Severity.ERROR, code, message, **kwargs)

    def warning(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Severity.WARNING, code, message, **kwargs)

    def info(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Severity.INFO, code, message, **kwargs)

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.is_error)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    def errors(self) -> Iterator[Diagnostic]:
        return (d for d in self.diagnostics if d.is_error)

    def extend(self, other: "DiagnosticCollector" | Iterable[Diagnostic]) -> None:
        if isinstance(other, DiagnosticCollector):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)


def render_vivado_log(
    diagnostics: Iterable[Diagnostic],
    *,
    tool: str = "xvlog",
    top: str = "",
) -> str:
    """Render a full compile-log body in the style of Vivado's ``xvlog``/``xvhdl``.

    The Review Agent parses exactly this format; keeping the shape close to the
    real tool means the agent's log-parsing logic is exercised realistically
    (banner, per-message lines with ``[file:line]`` suffixes, summary line).
    One pass renders every line and counts errors and warnings.
    """
    tool = tool.upper()
    lines = [f"INFO: [{tool} 1-1] Starting static elaboration"]
    if top:
        lines.append(f"INFO: [{tool} 1-2] Analyzing design unit {top}")
    errors = warnings = 0
    for diag in diagnostics:
        lines.append(diag.render())
        severity = diag.severity
        if severity >= _ERROR:
            errors += 1
            if diag.snippet:
                for raw in diag.snippet.splitlines():
                    lines.append(f"    > {raw}")
        elif severity is _WARNING:
            warnings += 1
    if errors:
        lines.append(
            f"ERROR: [{tool} 1-99] Analysis failed with {errors} error(s), "
            f"{warnings} warning(s)"
        )
    else:
        lines.append(
            f"INFO: [{tool} 1-0] Analysis succeeded with 0 error(s), "
            f"{warnings} warning(s)"
        )
    return "\n".join(lines)

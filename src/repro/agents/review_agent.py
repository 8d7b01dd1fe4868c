"""The Review Agent: syntactical correctness via compile-log analysis.

§3.2 of the paper: compile the code with the EDA tool, parse the log for
errors (codes, messages, line numbers, offending snippets), and convert them
into a highly detailed corrective prompt for the Code Agent. The structured
extraction is deterministic; an LLM pass phrases the findings the way a
reviewing engineer would, and both feed the corrective prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.eda.toolchain import CompileResult, HdlFile, Language, Toolchain
from repro.llm import protocol
from repro.llm.interface import LLMClient
from repro.agents.base import Agent, Transcript

_SYSTEM = (
    "You are the Review Agent of an RTL design team. You read EDA compiler "
    "logs and report every error precisely: its message, its location, and "
    "how to fix it."
)

#: the head of a Vivado-style error line, ``ERROR: [CODE]``
_ERROR_HEAD_RE = re.compile(r"ERROR:\s*\[([^\]]+)\]")
#: the ``[file:line]`` that ends a located message: the leftmost ``[``
#: from which the rest of the line is one
_LOCATION_RE = re.compile(r"\[([^\s\]:]+):(\d+)\]$")


@dataclass(frozen=True)
class ParsedError:
    """One error extracted from a compile log."""

    code: str
    message: str
    file: str = ""
    line: int = 0
    snippet: str = ""

    def render(self) -> str:
        where = f" at {self.file}:{self.line}" if self.line else ""
        snippet = f"\n    offending code: {self.snippet}" if self.snippet else ""
        return f"[{self.code}]{where}: {self.message}{snippet}"


@dataclass
class ReviewOutcome:
    """Result of one Syntax Optimization iteration."""

    ok: bool
    errors: list[ParsedError] = field(default_factory=list)
    corrective_prompt: str = ""
    compile_result: CompileResult | None = None
    tool_seconds: float = 0.0
    llm_seconds: float = 0.0


def parse_compile_log(log: str) -> list[ParsedError]:
    """Structured extraction of error lines (and their snippet lines).

    One linear pass: a line is an error when it starts with ``ERROR:``
    and its head names a code; the message runs to the ``[file:line]``
    that ends the line, if one does. The message is stripped, so the
    whitespace around it and before the location never matters.
    """
    errors: list[ParsedError] = []
    lines = log.splitlines()
    for index, line in enumerate(lines):
        if not line.startswith("ERROR:"):
            continue
        head = _ERROR_HEAD_RE.match(line)
        if head is None:
            continue
        code = head.group(1)
        if code.endswith("1-99"):
            continue  # the summary line, not a defect
        body = head.end()
        where = _LOCATION_RE.search(line, body) if line[-1] == "]" else None
        snippet = ""
        if index + 1 < len(lines) and lines[index + 1].startswith("    > "):
            snippet = lines[index + 1][6:].strip()
        if where is None:
            errors.append(ParsedError(code, line[body:].strip(), "", 0, snippet))
        else:
            errors.append(ParsedError(
                code, line[body:where.start()].strip(), where.group(1),
                int(where.group(2)), snippet,
            ))
    return errors


class ReviewAgent(Agent):
    """Compiles the design and produces syntax corrective prompts."""

    def __init__(
        self,
        llm: LLMClient,
        toolchain: Toolchain,
        language: Language,
        transcript: Transcript,
    ):
        super().__init__("ReviewAgent", llm, transcript)
        self.toolchain = toolchain
        self.language = language

    def review(self, files: list[HdlFile], top: str) -> ReviewOutcome:
        """One loop iteration: compile, and on errors build the prompt."""
        self.think(f"Compiling {len(files)} file(s) with top '{top}'.")
        result = self.toolchain.compile(files, top)
        if result.ok:
            self.observe("Compilation clean: no syntax errors detected.")
            return ReviewOutcome(
                ok=True, compile_result=result, tool_seconds=result.tool_seconds
            )
        errors = parse_compile_log(result.log)
        self.observe(
            f"Compilation failed with {len(errors)} error(s); building a "
            "corrective prompt."
        )
        analysis_prompt = (
            f"{protocol.TASK_ANALYZE_COMPILE}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            f"{protocol.log_block(result.log)}"
        )
        analysis = self.ask_llm(analysis_prompt, system=_SYSTEM).text
        corrective = self._corrective_prompt(errors, analysis)
        return ReviewOutcome(
            ok=False,
            errors=errors,
            corrective_prompt=corrective,
            compile_result=result,
            tool_seconds=result.tool_seconds,
            llm_seconds=self.take_latency(),
        )

    @staticmethod
    def _corrective_prompt(errors: list[ParsedError], analysis: str) -> str:
        """The 'highly detailed and actionable' prompt of §3.2."""
        numbered = "\n".join(
            f"{index}. {error.render()}"
            for index, error in enumerate(errors, start=1)
        )
        return (
            "The compiler reported the following syntax errors. Fix every "
            "one of them without changing the intended behaviour:\n"
            f"{numbered}\n"
            f"Reviewer analysis:\n{analysis}"
        )

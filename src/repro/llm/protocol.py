"""The prompt protocol shared by the agents and the synthetic LLM.

The agents communicate with any LLM through plain text; these markers define
the structure of that text (task headers, spec fences, language tags) so
prompts are parseable both by a human reading a transcript and by the
synthetic model. An API-backed LLM simply reads the same prompts as prose.
"""

from __future__ import annotations

import re

from repro.eda.toolchain import Language

#: task headers (first line of each user prompt)
TASK_TESTBENCH = "TASK: write a comprehensive self-checking testbench"
TASK_RTL = "TASK: write the RTL implementation"
TASK_FIX_SYNTAX = "TASK: fix the syntax errors reported by the compiler"
TASK_FIX_FUNCTIONAL = "TASK: fix the functional errors reported by simulation"
TASK_ANALYZE_COMPILE = "TASK: analyze the compiler log and report each error"
TASK_ANALYZE_SIM = "TASK: analyze the simulation log and report each failure"
TASK_CLARIFY = "TASK: ask the user for the missing specification details"

SPEC_FENCE = "-----SPEC-----"
CODE_FENCE = "-----CODE-----"
LOG_FENCE = "-----LOG-----"
TB_FENCE = "-----TESTBENCH-----"

_LANGUAGE_RE = re.compile(r"^Target language:\s*(\w+)\s*$", re.MULTILINE)


def language_tag(language: Language) -> str:
    return "Verilog" if language is Language.VERILOG else "VHDL"


def parse_language(prompt: str) -> Language | None:
    match = _LANGUAGE_RE.search(prompt)
    if match is None:
        return None
    tag = match.group(1).lower()
    if tag == "verilog":
        return Language.VERILOG
    if tag == "vhdl":
        return Language.VHDL
    return None


def _fenced(prompt: str, fence: str) -> str | None:
    """The text between the first ``fence`` line opener and the next line
    that starts with ``fence``, if both are there."""
    start = prompt.find(fence + "\n")
    if start < 0:
        return None
    start += len(fence) + 1
    end = prompt.find("\n" + fence, start)
    return prompt[start:end] if end >= 0 else None


def parse_spec(prompt: str) -> str | None:
    spec = _fenced(prompt, SPEC_FENCE)
    return spec.strip() if spec is not None else None


def parse_code(prompt: str) -> str | None:
    return _fenced(prompt, CODE_FENCE)


def parse_log(prompt: str) -> str | None:
    return _fenced(prompt, LOG_FENCE)


#: every task header, in the order :func:`detect_task` tries them
_TASKS = (
    TASK_TESTBENCH,
    TASK_RTL,
    TASK_FIX_SYNTAX,
    TASK_FIX_FUNCTIONAL,
    TASK_ANALYZE_COMPILE,
    TASK_ANALYZE_SIM,
    TASK_CLARIFY,
)


def detect_task(prompt: str) -> str | None:
    """Which protocol task heads this prompt, if any."""
    head = prompt.lstrip()
    for task in _TASKS:
        if head.startswith(task):
            return task
    return None


def spec_block(spec: str) -> str:
    return f"{SPEC_FENCE}\n{spec}\n{SPEC_FENCE}"


def code_block(code: str) -> str:
    return f"{CODE_FENCE}\n{code}\n{CODE_FENCE}"


def log_block(log: str) -> str:
    return f"{LOG_FENCE}\n{log}\n{LOG_FENCE}"

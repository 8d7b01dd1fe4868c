"""The Code Agent: the single source of code generation in AIVRIL2.

Testbench-first methodology (§3.1): the agent first writes a comprehensive
self-checking testbench from the specification, then the RTL against both
the spec and that testbench. During the optimization loops it applies
corrective prompts, keeping every version so the pipeline can inspect or
roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eda.toolchain import Language
from repro.llm import protocol
from repro.llm.interface import LLMClient
from repro.agents.base import Agent, Transcript

_SYSTEM = (
    "You are the Code Agent of an RTL design team. You produce complete, "
    "synthesizable {language} code. Respond with code only — no prose, no "
    "markdown fences."
)

#: below this many characters a specification is considered underspecified
MIN_SPEC_CHARS = 24


@dataclass(frozen=True)
class CodeVersion:
    """One snapshot of the RTL (or testbench) across the iterative process."""

    tag: str  # e.g. "rtl-v1", "rtl-v2-syntax-fix", "tb-v1"
    code: str
    reason: str  # why this version was produced


class SpecificationIncomplete(ValueError):
    """The user prompt lacks enough detail to start (and no dialog hook)."""


class CodeAgent(Agent):
    """Generates and iteratively refines testbench + RTL."""

    def __init__(
        self,
        llm: LLMClient,
        language: Language,
        transcript: Transcript,
        *,
        clarify=None,  # optional callback(question: str) -> str
    ):
        super().__init__("CodeAgent", llm, transcript)
        self.language = language
        self._system_text = _SYSTEM.format(
            language=protocol.language_tag(language)
        )
        self.clarify = clarify
        self.versions: list[CodeVersion] = []
        self._rtl_revision = 0

    # ------------------------------------------------------------------

    @property
    def current_rtl(self) -> str | None:
        for version in reversed(self.versions):
            if version.tag.startswith("rtl"):
                return version.code
        return None

    @property
    def current_testbench(self) -> str | None:
        for version in reversed(self.versions):
            if version.tag.startswith("tb"):
                return version.code
        return None

    def rollback_rtl(self) -> str | None:
        """Drop the newest RTL version; returns the one before it, if any."""
        for index in range(len(self.versions) - 1, -1, -1):
            if self.versions[index].tag.startswith("rtl"):
                self.versions.pop(index)
                break
        return self.current_rtl

    # ------------------------------------------------------------------

    def ensure_specification(self, spec: str) -> str:
        """Apply the paper's interactive-dialogue step for thin prompts."""
        spec = spec.strip()
        if len(spec) >= MIN_SPEC_CHARS:
            return spec
        self.think(
            "The specification is too thin to implement; asking the user "
            "for the missing details."
        )
        question_prompt = (
            f"{protocol.TASK_CLARIFY}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            f"{protocol.spec_block(spec)}"
        )
        question = self.ask_llm(question_prompt, system=self._system_text).text
        if self.clarify is None:
            raise SpecificationIncomplete(
                f"specification too short ({len(spec)} chars) and no "
                f"clarification channel available; would have asked: "
                f"{question}"
            )
        extra = self.clarify(question)
        return f"{spec}\n{extra}".strip()

    def generate_testbench(self, spec: str) -> str:
        """Step ② of Fig. 2: the comprehensive self-checking testbench."""
        self.think(
            "Writing the testbench first so it can anchor verification of "
            "every later RTL revision."
        )
        prompt = (
            f"{protocol.TASK_TESTBENCH}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            "The testbench must instantiate the design under test as "
            "'top_module', drive every interesting input pattern, check "
            "every output against the specification, print "
            "\"Test Case N Failed: ...\" for each mismatch and "
            "\"All tests passed successfully!\" when the design is correct.\n"
            f"{protocol.spec_block(spec)}"
        )
        code = self.ask_llm(prompt, system=self._system_text).text
        self.versions.append(
            CodeVersion(tag="tb-v1", code=code, reason="initial testbench")
        )
        return code

    def generate_rtl(self, spec: str, testbench: str) -> str:
        """Step ③ of Fig. 2: the first RTL revision."""
        self.think("Producing the initial RTL against the spec and testbench.")
        prompt = (
            f"{protocol.TASK_RTL}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            "Implement the design exactly as specified; the module/entity "
            "must be named 'top_module' and must pass the testbench below.\n"
            f"{protocol.spec_block(spec)}\n"
            f"{protocol.TB_FENCE}\n{testbench}\n{protocol.TB_FENCE}"
        )
        code = self.ask_llm(prompt, system=self._system_text).text
        self._rtl_revision = 1
        self.versions.append(
            CodeVersion(tag="rtl-v1", code=code, reason="initial RTL")
        )
        return code

    def revise_rtl(self, spec: str, corrective_prompt: str, *, kind: str) -> str:
        """Apply a corrective prompt from the Review or Verification agent.

        ``kind`` is "syntax" or "functional"; it selects the task header so
        the conversation stays explicit about which loop is active.
        """
        if kind == "syntax":
            task = protocol.TASK_FIX_SYNTAX
        elif kind == "functional":
            task = protocol.TASK_FIX_FUNCTIONAL
        else:
            raise ValueError(f"bad revision kind {kind!r}")
        current = self.current_rtl or ""
        self.think(f"Revising the RTL to address {kind} feedback.")
        prompt = (
            f"{task}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            f"{protocol.spec_block(spec)}\n"
            f"{protocol.code_block(current)}\n"
            f"Feedback from the {kind} review:\n{corrective_prompt}\n"
            "Return the complete corrected source."
        )
        code = self.ask_llm(prompt, system=self._system_text).text
        self._rtl_revision += 1
        self.versions.append(
            CodeVersion(
                tag=f"rtl-v{self._rtl_revision}-{kind}-fix",
                code=code,
                reason=f"{kind} corrective prompt",
            )
        )
        return code

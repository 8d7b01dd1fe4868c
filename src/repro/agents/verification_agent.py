"""The Verification Agent: functional correctness via simulation analysis.

§3.3 of the paper: once RTL and testbench are syntax-clean, simulate and
compare against expectations. The testbench is **frozen** across the whole
Functional Optimization loop — only the RTL revisions change — so every
iteration is judged by the same standard. Failures become corrective
prompts for the Code Agent; success is the literal
"All tests passed successfully!" line in the simulation log.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.designs.tbgen import PASS_MESSAGE
from repro.eda.toolchain import HdlFile, Language, SimResult, Toolchain
from repro.llm import protocol
from repro.llm.interface import LLMClient
from repro.agents.base import Agent, Transcript

_SYSTEM = (
    "You are the Verification Agent of an RTL design team. You read "
    "simulation logs, identify every failing test case, and explain what "
    "behaviour the design got wrong."
)

_FAILURE_RE = re.compile(
    r"Test Case (?P<case>\d+) Failed: (?P<detail>.*)$"
)


@dataclass(frozen=True)
class TestFailure:
    """One failing test case parsed from the simulation log."""

    case: int
    detail: str

    def render(self) -> str:
        return f"Test Case {self.case} Failed: {self.detail}"


@dataclass
class VerifyOutcome:
    """Result of one Functional Optimization iteration."""

    ok: bool
    failures: list[TestFailure] = field(default_factory=list)
    corrective_prompt: str = ""
    sim_result: SimResult | None = None
    runtime_error: str = ""
    tool_seconds: float = 0.0
    llm_seconds: float = 0.0


def parse_sim_failures(log: str) -> list[TestFailure]:
    failures = []
    for line in log.splitlines():
        if "Test Case " not in line:
            continue
        match = _FAILURE_RE.search(line)
        if match is not None:
            failures.append(
                TestFailure(
                    case=int(match.group("case")),
                    detail=match.group("detail").strip(),
                )
            )
    return failures


class VerificationAgent(Agent):
    """Simulates the frozen testbench and produces functional prompts."""

    def __init__(
        self,
        llm: LLMClient,
        toolchain: Toolchain,
        language: Language,
        transcript: Transcript,
    ):
        super().__init__("VerificationAgent", llm, transcript)
        self.toolchain = toolchain
        self.language = language

    def verify(self, files: list[HdlFile], top: str) -> VerifyOutcome:
        """One loop iteration: simulate, and on failures build the prompt."""
        self.think(f"Simulating '{top}' against the frozen testbench.")
        result = self.toolchain.simulate(files, top)
        failures = parse_sim_failures(result.log)
        passed = (
            result.ok
            and not failures
            and any(PASS_MESSAGE in line for line in result.output_lines)
        )
        if passed:
            self.observe("All tests passed successfully!")
            return VerifyOutcome(
                ok=True, sim_result=result, tool_seconds=result.tool_seconds
            )
        if result.runtime_error:
            self.observe(f"Simulation aborted: {result.runtime_error}")
        else:
            self.observe(
                f"Simulation found {len(failures)} failing test case(s)."
            )
        analysis_prompt = (
            f"{protocol.TASK_ANALYZE_SIM}\n"
            f"Target language: {protocol.language_tag(self.language)}\n"
            f"{protocol.log_block(result.log)}"
        )
        analysis = self.ask_llm(analysis_prompt, system=_SYSTEM).text
        corrective = self._corrective_prompt(failures, result, analysis)
        return VerifyOutcome(
            ok=False,
            failures=failures,
            corrective_prompt=corrective,
            sim_result=result,
            runtime_error=result.runtime_error,
            tool_seconds=result.tool_seconds,
            llm_seconds=self.take_latency(),
        )

    @staticmethod
    def _corrective_prompt(
        failures: list[TestFailure], result: SimResult, analysis: str
    ) -> str:
        if failures:
            numbered = "\n".join(
                f"{index}. {failure.render()}"
                for index, failure in enumerate(failures, start=1)
            )
            body = (
                "The simulation shows the design violates the specification "
                "in these test cases:\n" + numbered
            )
        elif result.runtime_error:
            body = (
                "The simulation could not run to completion: "
                + result.runtime_error
            )
        else:
            body = (
                "The simulation did not report success; the design never "
                "reached the all-tests-passed state."
            )
        return (
            f"{body}\n"
            "Keep the testbench unchanged; revise only the RTL so every "
            "test case passes.\n"
            f"Verifier analysis:\n{analysis}"
        )

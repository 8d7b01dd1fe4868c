"""Agent base machinery: transcripts and LLM plumbing.

Every agent interaction is recorded as ReAct-style steps (thought → action →
observation), so a pipeline run yields a readable trace like the paper's
Fig. 2 internal-state walkthrough. LLM latency is accumulated per agent and
surfaced to the pipeline's latency ledger.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.llm.interface import ChatMessage, LLMClient, LLMResponse


class StepKind(enum.Enum):
    THOUGHT = "thought"
    ACTION = "action"
    OBSERVATION = "observation"


@dataclass(frozen=True)
class AgentStep:
    """One entry of an agent transcript."""

    agent: str
    kind: StepKind
    content: str

    def render(self) -> str:
        return f"[{self.agent}] {self.kind.value}: {self.content}"


@dataclass
class Transcript:
    """Shared, ordered record of everything the agents did."""

    steps: list[AgentStep] = field(default_factory=list)

    def record(self, agent: str, kind: StepKind, content: str) -> None:
        self.steps.append(AgentStep(agent, kind, content))

    def render(self, *, max_chars_per_step: int = 200) -> str:
        lines = []
        for step in self.steps:
            content = step.content.strip().replace("\n", " ⏎ ")
            if len(content) > max_chars_per_step:
                content = content[: max_chars_per_step - 1] + "…"
            lines.append(f"[{step.agent}] {step.kind.value}: {content}")
        return "\n".join(lines)

    def by_agent(self, agent: str) -> list[AgentStep]:
        return [s for s in self.steps if s.agent == agent]


class Agent:
    """Base class: named LLM-backed participant writing to a transcript."""

    def __init__(self, name: str, llm: LLMClient, transcript: Transcript):
        self.name = name
        self.llm = llm
        self.transcript = transcript
        self.llm_seconds = 0.0
        self.llm_calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        #: the system turn last sent; an agent's system text is fixed, so
        #: it is built once
        self._system: ChatMessage | None = None

    def think(self, thought: str) -> None:
        self.transcript.record(self.name, StepKind.THOUGHT, thought)

    def observe(self, observation: str) -> None:
        self.transcript.record(self.name, StepKind.OBSERVATION, observation)

    def ask_llm(self, prompt: str, *, system: str = "") -> LLMResponse:
        """One LLM round-trip, recorded and accounted."""
        self.transcript.record(self.name, StepKind.ACTION, prompt)
        messages = []
        if system:
            if self._system is None or self._system.content != system:
                self._system = ChatMessage(role="system", content=system)
            messages.append(self._system)
        messages.append(ChatMessage(role="user", content=prompt))
        response = self.llm.complete(messages)
        self.llm_seconds += response.latency_seconds
        self.llm_calls += 1
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        self.transcript.record(self.name, StepKind.OBSERVATION, response.text)
        return response

    def take_latency(self) -> float:
        """Read and reset the accumulated LLM latency (seconds)."""
        seconds = self.llm_seconds
        self.llm_seconds = 0.0
        return seconds

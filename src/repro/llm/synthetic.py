"""The synthetic design LLM.

Simulates one of the paper's models (via its
:class:`~repro.llm.profiles.CapabilityProfile`) behind the ordinary
:class:`~repro.llm.interface.LLMClient` protocol. All communication is text:
it receives the agents' prompts, renders real HDL (the suite reference
implementation with profile-chosen defects injected), and "improves" its
output across corrective rounds with the profile's calibrated efficacy.

The calibration is a deterministic **defect plan**: problems are ranked by a
per-(model, language) hash and assigned defect classes so that, over the
full 156-problem suite, baseline and post-AIVRIL2 pass rates land exactly on
the paper's Table 1 counts. Because individual runs still produce real
defective code that really fails to compile or simulate, the agent loops are
exercised genuinely; only the *distribution* of defects is pinned.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

from repro.designs.model import TOP_NAME
from repro.designs.mutations import Mutation, MutationError, apply_mutation
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import Language
from repro.evalsuite.problem import Problem
from repro.evalsuite.suite import Suite
from repro.llm import protocol
from repro.llm.interface import ChatMessage, LLMError, LLMResponse, estimate_tokens
from repro.llm.profiles import CapabilityProfile, count_of

#: upper bound on assigned convergence cycles (below the pipeline's default
#: iteration caps, so repairable problems always converge)
MAX_ASSIGNED_CYCLES = 6
#: test cases in the self-written testbench of ``testbench_quality="weak"``
WEAK_TB_CASES = 6


def _rank_key(model: str, language: Language, pid: str, salt: str = "") -> int:
    digest = hashlib.sha256(
        f"{model}|{language.value}|{pid}|{salt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _cycle_sequence(mean: float, count: int) -> list[int]:
    """Deterministic integer cycle counts with the requested mean.

    Interleaves floor/ceil of the mean so the running average tracks it,
    clamped to [1, MAX_ASSIGNED_CYCLES].
    """
    if count <= 0:
        return []
    base = math.floor(mean)
    frac = mean - base
    values = []
    acc = 0.0
    for _ in range(count):
        acc += frac
        if acc >= 0.9999:
            acc -= 1.0
            value = base + 1
        else:
            value = base
        values.append(max(1, min(MAX_ASSIGNED_CYCLES, value)))
    return values


@dataclass
class ProblemPlan:
    """The defect fate of one problem under one (model, language)."""

    pid: str
    syntax_mutations: list[Mutation] = field(default_factory=list)
    functional_mutation: Mutation | None = None
    syntax_repairable: bool = True
    functional_repairable: bool = True
    syntax_cycles: int = 0  # corrective rounds until syntax-clean
    functional_cycles: int = 0  # corrective rounds until functionally clean

    @property
    def has_syntax_defect(self) -> bool:
        return bool(self.syntax_mutations)

    @property
    def has_functional_defect(self) -> bool:
        return self.functional_mutation is not None


def build_defect_plan(
    profile: CapabilityProfile,
    language: Language,
    suite: Suite,
    *,
    salt: str = "",
) -> dict[str, ProblemPlan]:
    """Derive the deterministic per-problem plan from the calibrated rates.

    ``salt`` re-ranks the problems, producing an *independent sample* with
    the same marginal rates — how the harness models temperature-style
    sampling for multi-sample pass@k experiments.
    """
    behaviour = profile.for_language(language)
    problems = sorted(
        suite.problems,
        key=lambda p: _rank_key(profile.name, language, p.pid, salt),
    )
    total = len(problems)
    base_syntax_pass = count_of(behaviour.base_syntax_pct, total)
    base_functional_pass = count_of(behaviour.base_functional_pct, total)
    final_syntax_pass = count_of(behaviour.aivril_syntax_pct, total)
    final_functional_pass = count_of(behaviour.aivril_functional_pct, total)

    syntax_defective = problems[: total - base_syntax_pass]
    functional_only = problems[
        total - base_syntax_pass : total - base_functional_pass
    ]
    syntax_unrepairable = syntax_defective[: total - final_syntax_pass]
    syntax_repaired = syntax_defective[total - final_syntax_pass :]

    functional_unrep_target = final_syntax_pass - final_functional_pass
    latent_count = max(
        round(behaviour.latent_functional_rate * len(syntax_repaired)),
        functional_unrep_target - len(functional_only),
        0,
    )
    latent_count = min(latent_count, len(syntax_repaired))
    latent = syntax_repaired[:latent_count]
    functional_defective = list(functional_only) + list(latent)
    if functional_unrep_target > len(functional_defective):
        raise ValueError(
            f"{profile.name}/{language.value}: cannot place "
            f"{functional_unrep_target} unrepairable functional defects in "
            f"{len(functional_defective)} defective problems"
        )
    functional_unrepairable = set(
        p.pid for p in functional_defective[:functional_unrep_target]
    )

    syntax_cycle_values = _cycle_sequence(
        behaviour.mean_syntax_cycles, len(syntax_repaired)
    )
    repairable_functional = [
        p for p in functional_defective if p.pid not in functional_unrepairable
    ]
    functional_cycle_values = _cycle_sequence(
        behaviour.mean_functional_cycles, len(repairable_functional)
    )

    plans: dict[str, ProblemPlan] = {
        p.pid: ProblemPlan(pid=p.pid) for p in problems
    }
    for problem in syntax_defective:
        plan = plans[problem.pid]
        catalog = problem.syntax_mutations[language]
        pick = _rank_key(profile.name, language, problem.pid + "#syn") % len(
            catalog
        )
        plan.syntax_mutations = [catalog[pick]]
        plan.syntax_repairable = False
    for index, problem in enumerate(syntax_repaired):
        plan = plans[problem.pid]
        plan.syntax_repairable = True
        plan.syntax_cycles = syntax_cycle_values[index]
    for problem in functional_defective:
        plan = plans[problem.pid]
        catalog = problem.functional_mutations[language]
        pick = _rank_key(profile.name, language, problem.pid + "#fun") % len(
            catalog
        )
        plan.functional_mutation = catalog[pick]
        plan.functional_repairable = problem.pid not in functional_unrepairable
    for index, problem in enumerate(repairable_functional):
        plans[problem.pid].functional_cycles = functional_cycle_values[index]
    return plans


@dataclass
class PlanStatistics:
    """Expected suite-level outcomes implied by a defect plan."""

    total: int
    base_syntax_pass: int
    base_functional_pass: int
    final_syntax_pass: int
    final_functional_pass: int


def plan_statistics(plans: dict[str, ProblemPlan]) -> PlanStatistics:
    total = len(plans)
    base_syntax = sum(1 for p in plans.values() if not p.has_syntax_defect)
    base_functional = sum(
        1
        for p in plans.values()
        if not p.has_syntax_defect and not p.has_functional_defect
    )
    final_syntax = sum(
        1
        for p in plans.values()
        if not p.has_syntax_defect or p.syntax_repairable
    )
    final_functional = sum(
        1
        for p in plans.values()
        if (not p.has_syntax_defect or p.syntax_repairable)
        and (not p.has_functional_defect or p.functional_repairable)
    )
    return PlanStatistics(
        total=total,
        base_syntax_pass=base_syntax,
        base_functional_pass=base_functional,
        final_syntax_pass=final_syntax,
        final_functional_pass=final_functional,
    )


@dataclass
class _SessionState:
    """Attempt counters for one (pid, language) conversation."""

    syntax_attempts: int = 0
    functional_attempts: int = 0


class SyntheticDesignLLM:
    """Profile-driven LLM simulator implementing the client protocol."""

    def __init__(
        self,
        profile: CapabilityProfile,
        suite: Suite,
        *,
        testbench_quality: str = "full",  # "full" | "weak"
        variant: int = 0,
    ):
        if testbench_quality not in ("full", "weak"):
            raise ValueError(f"bad testbench_quality {testbench_quality!r}")
        self.profile = profile
        self.suite = suite
        self.testbench_quality = testbench_quality
        #: sample index: variant k behaves like an independent draw from the
        #: model's output distribution (same rates, re-ranked defect plan)
        self.variant = variant
        self.name = profile.name
        self._by_prompt: dict[str, Problem] = {
            p.prompt.strip(): p for p in suite.problems
        }
        self._plans: dict[Language, dict[str, ProblemPlan]] = {}
        self._state: dict[tuple[str, Language], _SessionState] = {}
        self.call_count = 0

    # ------------------------------------------------------------------

    def plan(self, language: Language) -> dict[str, ProblemPlan]:
        if language not in self._plans:
            salt = f"sample-{self.variant}" if self.variant else ""
            self._plans[language] = build_defect_plan(
                self.profile, language, self.suite, salt=salt
            )
        return self._plans[language]

    def override_plan(self, pid: str, language: Language, **fields) -> ProblemPlan:
        """Force a specific defect fate for one problem (demos and tests).

        Example: make the Fig. 2 walkthrough deterministic regardless of the
        calibrated plan::

            llm.override_plan(
                "shift_ena_pulse", Language.VERILOG,
                syntax_mutations=[], functional_mutation=mutation,
                functional_repairable=True, functional_cycles=1,
            )
        """
        plan = self.plan(language)[pid]
        for key, value in fields.items():
            if not hasattr(plan, key):
                raise AttributeError(f"ProblemPlan has no field {key!r}")
            setattr(plan, key, value)
        return plan

    # ------------------------------------------------------------------

    def complete(self, messages: list[ChatMessage]) -> LLMResponse:
        self.call_count += 1
        prompt = next(
            (m.content for m in reversed(messages) if m.role == "user"), ""
        )
        task = protocol.detect_task(prompt)
        if task is None:
            raise LLMError("synthetic LLM received a prompt with no TASK header")
        language = protocol.parse_language(prompt)
        if task in (protocol.TASK_ANALYZE_COMPILE, protocol.TASK_ANALYZE_SIM):
            return self._analyze(prompt, task, language)
        if task == protocol.TASK_CLARIFY:
            return self._respond(
                "Please describe the desired interface (ports and widths) "
                "and the exact cycle-by-cycle behaviour of the design.",
                self._behaviour_or_default(language).analyze_seconds,
                prompt,
            )
        spec = protocol.parse_spec(prompt)
        if spec is None or language is None:
            raise LLMError("generation prompt is missing the spec or language tag")
        problem = self._by_prompt.get(spec.strip())
        if problem is None:
            raise LLMError("synthetic LLM does not recognize this specification")
        behaviour = self.profile.for_language(language)
        if task == protocol.TASK_TESTBENCH:
            return self._respond(
                self._testbench(problem, language),
                behaviour.tb_gen_seconds,
                prompt,
            )
        state = self._state.setdefault(
            (problem.pid, language), _SessionState()
        )
        if task == protocol.TASK_RTL:
            state.syntax_attempts = 0
            state.functional_attempts = 0
            return self._respond(
                self._render(problem, language, state),
                behaviour.rtl_gen_seconds,
                prompt,
            )
        if task == protocol.TASK_FIX_SYNTAX:
            state.syntax_attempts += 1
            return self._respond(
                self._render(problem, language, state),
                behaviour.fix_gen_seconds,
                prompt,
            )
        if task == protocol.TASK_FIX_FUNCTIONAL:
            state.functional_attempts += 1
            return self._respond(
                self._render(problem, language, state),
                behaviour.fix_gen_seconds,
                prompt,
            )
        raise LLMError(f"unhandled task {task!r}")

    # ------------------------------------------------------------------

    def _analyze(self, prompt: str, task: str,
                 language: Language | None) -> LLMResponse:
        """Summarize a tool log (the Review/Verification agents' LLM step).

        A real model reads the log and describes each problem; the synthetic
        model extracts the ERROR/failure lines and phrases them, which
        produces the same kind of actionable text. ``language`` is the
        prompt's, as :meth:`complete` parsed it.
        """
        log = protocol.parse_log(prompt) or ""
        behaviour = self._behaviour_or_default(language)
        if task == protocol.TASK_ANALYZE_COMPILE:
            findings = [
                line for line in log.splitlines()
                if line.startswith(("ERROR:", "    > "))
            ]
            header = "I reviewed the compiler log; the following must be fixed:"
        else:
            findings = [
                line for line in log.splitlines()
                if "Failed" in line or line.startswith("ERROR:")
            ]
            header = (
                "I reviewed the simulation log; these test cases show the "
                "design deviates from the specification:"
            )
        if not findings:
            findings = ["(no explicit error lines found — re-check the output)"]
        text = header + "\n" + "\n".join(f"- {line.strip()}" for line in findings)
        return self._respond(text, behaviour.analyze_seconds, prompt)

    def _behaviour_or_default(self, language: Language | None):
        if language is None:
            language = Language.VERILOG
        return self.profile.for_language(language)

    def _respond(self, text: str, latency: float, prompt: str) -> LLMResponse:
        return LLMResponse(
            text=text,
            model=self.name,
            latency_seconds=latency,
            prompt_tokens=estimate_tokens(prompt),
            completion_tokens=estimate_tokens(text),
        )

    def _testbench(self, problem: Problem, language: Language) -> str:
        if self.testbench_quality == "full":
            return problem.golden_tb[language]
        return make_testbench(
            problem.spec,
            problem.model,
            language,
            problem.pid,
            max_cases=WEAK_TB_CASES,
        )

    def _render(
        self, problem: Problem, language: Language, state: _SessionState
    ) -> str:
        """The RTL the model would emit at the current attempt counts."""
        plan = self.plan(language)[problem.pid]
        source = problem.reference[language]
        mutations: list[Mutation] = []
        functional_active = plan.has_functional_defect and not (
            plan.functional_repairable
            and state.functional_attempts >= plan.functional_cycles
        )
        if functional_active:
            # unrepairable problems keep receiving the *same* wrong answer —
            # a stuck model — which lets the pipeline's no-progress detector
            # cut the loop short, exactly like an engineer would
            if plan.functional_mutation is not None:
                mutations.append(plan.functional_mutation)
        syntax_active = plan.has_syntax_defect and not (
            plan.syntax_repairable
            and state.syntax_attempts >= plan.syntax_cycles
        )
        if syntax_active:
            mutations.append(plan.syntax_mutations[0])
        for mutation in mutations:
            try:
                source = apply_mutation(source, mutation)
            except MutationError:
                # overlapping anchors after a previous mutation: skip —
                # the remaining defect still dominates the outcome
                continue
        # A model that is actually making progress paraphrases its output
        # between rounds; a stuck model repeats itself verbatim. Emitting a
        # revision marker only on repairable paths gives the pipeline's
        # no-progress detector exactly that signal.
        revision = 0
        if plan.syntax_repairable:
            revision += state.syntax_attempts
        if plan.functional_repairable:
            revision += state.functional_attempts
        if revision > 0:
            comment = "//" if language is Language.VERILOG else "--"
            source += f"\n{comment} revision {revision}\n"
        return source

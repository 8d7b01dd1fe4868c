"""The AIVRIL2 pipeline: testbench-first generation plus two EDA-aware loops.

Control flow (Fig. 1/Fig. 2 of the paper):

1. The Code Agent checks the prompt is implementable (asking the user for
   detail when it is not), writes the testbench, then the initial RTL.
2. **Syntax Optimization loop** — Review Agent compiles RTL + testbench;
   each failing compile becomes a corrective prompt the Code Agent answers
   with a new RTL revision, until the compile is clean or the iteration cap
   is hit.
3. **Functional Optimization loop** — Verification Agent simulates the
   frozen testbench; each failing run becomes a corrective prompt, until
   all test cases pass or the cap is hit.

Either loop also stops as soon as the Code Agent returns byte-identical
code: a stuck model will never converge, so further rounds only burn time.

The pipeline never judges functional success itself — that is the suite's
(hidden) golden testbench's job in the evaluation harness — it reports what
its own testbench observed, as the paper's tool does.
"""

from __future__ import annotations

import logging
import time as _time

from repro.agents.base import StepKind, Transcript
from repro.agents.code_agent import CodeAgent
from repro.agents.review_agent import ReviewAgent
from repro.agents.verification_agent import VerificationAgent
from repro.core.config import PipelineConfig
from repro.core.result import (
    BaselineResult,
    LatencyBreakdown,
    PipelineResult,
    TokenUsage,
)
from repro.designs.model import TOP_NAME
from repro.designs.tbgen import TB_NAME
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.llm import protocol
from repro.llm.interface import LLMClient, LLMError
from repro.obs import get_tracer

log = logging.getLogger(__name__)


class PipelineAborted(RuntimeError):
    """The pipeline could not even produce initial code (LLM failure)."""


class Aivril2Pipeline:
    """Orchestrates the three agents for one design task."""

    def __init__(
        self,
        llm: LLMClient,
        toolchain: Toolchain | None = None,
        config: PipelineConfig | None = None,
        *,
        clarify=None,
    ):
        self.llm = llm
        self.toolchain = toolchain or Toolchain()
        self.config = config or PipelineConfig()
        self.clarify = clarify

    # ------------------------------------------------------------------

    def run(self, spec: str) -> PipelineResult:
        """Execute the full two-loop flow for one specification."""
        tracer = get_tracer()
        with tracer.span(
            "pipeline.run",
            language=self.config.language.value,
            testbench_first=self.config.testbench_first,
        ) as run_span:
            result = self._run_traced(spec, tracer)
            run_span.set_attrs(
                syntax_ok=result.syntax_ok,
                functional_ok=result.functional_ok,
                syntax_iterations=result.syntax_iterations,
                functional_iterations=result.functional_iterations,
                prompt_tokens=result.tokens.prompt_tokens,
                completion_tokens=result.tokens.completion_tokens,
                llm_calls=result.tokens.llm_calls,
            )
            metrics = tracer.metrics
            metrics.counter("pipeline.runs").inc()
            metrics.counter("llm.tokens.prompt").inc(
                result.tokens.prompt_tokens
            )
            metrics.counter("llm.tokens.completion").inc(
                result.tokens.completion_tokens
            )
            return result

    def _run_traced(self, spec: str, tracer) -> PipelineResult:
        started = _time.perf_counter()
        config = self.config
        transcript = Transcript()
        code_agent = CodeAgent(
            self.llm, config.language, transcript, clarify=self.clarify
        )
        review_agent = ReviewAgent(
            self.llm, self.toolchain, config.language, transcript
        )
        verification_agent = VerificationAgent(
            self.llm, self.toolchain, config.language, transcript
        )
        latency = LatencyBreakdown()

        spec = code_agent.ensure_specification(spec)
        try:
            with tracer.span(
                "pipeline.generate", testbench_first=config.testbench_first
            ):
                if config.testbench_first:
                    testbench = code_agent.generate_testbench(spec)
                    rtl = code_agent.generate_rtl(spec, testbench)
                else:
                    # AIVRIL-style: RTL first, testbench written afterwards
                    rtl = code_agent.generate_rtl(spec, testbench="")
                    testbench = code_agent.generate_testbench(spec)
        except LLMError as exc:
            # without initial code there is nothing to optimize
            raise PipelineAborted(
                f"the LLM failed before producing initial code: {exc}"
            ) from exc
        latency.generation_llm += code_agent.take_latency()

        # ---------------- Syntax Optimization loop ----------------
        syntax_ok = False
        syntax_iterations = 0
        try:
            syntax_ok, syntax_iterations, rtl = self._syntax_loop(
                spec, rtl, testbench, code_agent, review_agent, latency,
                tracer,
            )
        except LLMError as exc:
            log.warning("LLM failure in the syntax loop: %s", exc)
            transcript.record(
                "ReviewAgent",
                StepKind.OBSERVATION,
                f"LLM failure during the syntax loop; stopping with the "
                f"last code revision: {exc}",
            )

        # ---------------- Functional Optimization loop ----------------
        functional_ok = False
        functional_iterations = 0
        if syntax_ok:
            try:
                functional_ok, functional_iterations, rtl = (
                    self._functional_loop(
                        spec, rtl, testbench, code_agent,
                        verification_agent, latency, tracer,
                    )
                )
            except LLMError as exc:
                log.warning("LLM failure in the functional loop: %s", exc)
                transcript.record(
                    "VerificationAgent",
                    StepKind.OBSERVATION,
                    f"LLM failure during the functional loop; stopping with "
                    f"the last code revision: {exc}",
                )

        agents = (code_agent, review_agent, verification_agent)
        tokens = TokenUsage(
            prompt_tokens=sum(a.prompt_tokens for a in agents),
            completion_tokens=sum(a.completion_tokens for a in agents),
            llm_calls=sum(a.llm_calls for a in agents),
        )
        log.debug(
            "pipeline finished: syntax_ok=%s functional_ok=%s "
            "iterations=%d/%d",
            syntax_ok, functional_ok, syntax_iterations,
            functional_iterations,
        )
        return PipelineResult(
            spec=spec,
            rtl=rtl,
            testbench=testbench,
            syntax_ok=syntax_ok,
            functional_ok=functional_ok,
            syntax_iterations=syntax_iterations,
            functional_iterations=functional_iterations,
            latency=latency,
            wall_seconds=_time.perf_counter() - started,
            transcript=transcript,
            versions=list(code_agent.versions),
            tokens=tokens,
        )

    def _syntax_loop(
        self, spec, rtl, testbench, code_agent, review_agent, latency, tracer
    ) -> tuple[bool, int, str]:
        """Run the Syntax Optimization loop; returns (ok, iterations, rtl)."""
        config = self.config
        syntax_ok = False
        syntax_iterations = 0
        with tracer.span("loop.syntax") as loop_span:
            for _ in range(config.max_syntax_iterations):
                with tracer.span(
                    "loop.syntax.iteration", iteration=syntax_iterations + 1
                ) as iteration_span:
                    outcome = review_agent.review(
                        self._files(rtl, testbench), TB_NAME
                    )
                    latency.syntax_tool += outcome.tool_seconds
                    latency.syntax_llm += outcome.llm_seconds
                    error_count = (
                        outcome.compile_result.error_count
                        if outcome.compile_result is not None
                        else len(outcome.errors)
                    )
                    iteration_span.set_attrs(
                        ok=outcome.ok, error_count=error_count
                    )
                    if outcome.ok:
                        syntax_ok = True
                        break
                    syntax_iterations += 1
                    previous_rtl = rtl
                    rtl = code_agent.revise_rtl(
                        spec, outcome.corrective_prompt, kind="syntax"
                    )
                    latency.syntax_llm += code_agent.take_latency()
                    iteration_span.set_attr("revised", rtl != previous_rtl)
                    if rtl == previous_rtl:
                        code_agent.observe(
                            "The revision is identical to the previous code; "
                            "the syntax loop cannot make further progress."
                        )
                        break
            else:
                # cap hit: one final check so the report reflects the last code
                with tracer.span("loop.syntax.final_check") as final_span:
                    outcome = review_agent.review(
                        self._files(rtl, testbench), TB_NAME
                    )
                    latency.syntax_tool += outcome.tool_seconds
                    latency.syntax_llm += outcome.llm_seconds
                    syntax_ok = outcome.ok
                    final_span.set_attr("ok", outcome.ok)
            loop_span.set_attrs(ok=syntax_ok, iterations=syntax_iterations)
        return syntax_ok, syntax_iterations, rtl

    def _functional_loop(
        self, spec, rtl, testbench, code_agent, verification_agent, latency,
        tracer,
    ) -> tuple[bool, int, str]:
        """Run the Functional Optimization loop against the frozen
        testbench; returns (ok, iterations, rtl)."""
        config = self.config
        functional_ok = False
        functional_iterations = 0
        with tracer.span("loop.functional") as loop_span:
            for _ in range(config.max_functional_iterations):
                with tracer.span(
                    "loop.functional.iteration",
                    iteration=functional_iterations + 1,
                ) as iteration_span:
                    outcome = verification_agent.verify(
                        self._files(rtl, testbench), TB_NAME
                    )
                    latency.functional_tool += outcome.tool_seconds
                    latency.functional_llm += outcome.llm_seconds
                    iteration_span.set_attrs(
                        ok=outcome.ok,
                        failing_cases=len(outcome.failures),
                        runtime_error=bool(outcome.runtime_error),
                    )
                    if outcome.ok:
                        functional_ok = True
                        break
                    functional_iterations += 1
                    previous_rtl = rtl
                    rtl = code_agent.revise_rtl(
                        spec, outcome.corrective_prompt, kind="functional"
                    )
                    latency.functional_llm += code_agent.take_latency()
                    iteration_span.set_attr("revised", rtl != previous_rtl)
                    if rtl == previous_rtl:
                        code_agent.observe(
                            "The revision is identical to the previous code; "
                            "the functional loop cannot make further progress."
                        )
                        break
            else:
                with tracer.span("loop.functional.final_check") as final_span:
                    outcome = verification_agent.verify(
                        self._files(rtl, testbench), TB_NAME
                    )
                    latency.functional_tool += outcome.tool_seconds
                    latency.functional_llm += outcome.llm_seconds
                    functional_ok = outcome.ok
                    final_span.set_attr("ok", outcome.ok)
            loop_span.set_attrs(
                ok=functional_ok, iterations=functional_iterations
            )
        return functional_ok, functional_iterations, rtl

    def _files(self, rtl: str, testbench: str) -> list[HdlFile]:
        language = self.config.language
        ext = language.file_extension
        return [
            HdlFile(f"{TOP_NAME}{ext}", rtl, language),
            HdlFile(f"{TB_NAME}{ext}", testbench, language),
        ]


def run_baseline(
    llm: LLMClient, spec: str, language: Language
) -> BaselineResult:
    """The paper's baseline: one zero-shot RTL generation, no loops."""
    with get_tracer().span(
        "pipeline.baseline", language=language.value
    ) as span:
        started = _time.perf_counter()
        transcript = Transcript()
        code_agent = CodeAgent(llm, language, transcript)
        rtl = code_agent.generate_rtl(spec, testbench="")
        span.set_attrs(
            prompt_tokens=code_agent.prompt_tokens,
            completion_tokens=code_agent.completion_tokens,
        )
        return BaselineResult(
            spec=spec,
            rtl=rtl,
            latency_seconds=code_agent.llm_seconds,
            wall_seconds=_time.perf_counter() - started,
        )

"""The experiment runner: sweeps (model × language × framework) over the suite.

For each configuration it measures, per problem:

* **baseline** — one zero-shot generation; syntax pass = the RTL compiles on
  its own, functional pass = the RTL passes the suite's golden testbench;
* **AIVRIL2** — a full two-loop pipeline run; the same two judgments are
  applied to the *final* RTL, plus loop-iteration counts and the modeled
  latency breakdown.

Functional correctness is always judged by the suite's hidden golden
testbench (the VerilogEval protocol), never by the pipeline's own testbench.

Execution model
---------------

Each (model, language, problem) triple is a *pure task*: its outcome depends
only on the deterministic defect plan, never on which other problems ran
before it or on which process it ran in. The runner therefore dispatches the
work-list through :class:`~repro.exec.engine.ExecutionEngine` — serially by
default (``workers=1``), or across worker processes with ``workers=N``.

Every process builds one :class:`~repro.eda.toolchain.Toolchain` per run and
shares it, with its result store, across all configurations. The work-list
is problem-major: one problem's configurations run back to back, so the
golden testbench and the references they share are parsed, elaborated and
judged once, and the store's working set stays one problem wide at any
suite size. Results are put back together per configuration by task index,
so the produced :class:`ConfigResult` is record-for-record identical at any
worker count (``tests/test_exec_differential.py`` enforces this).

A task that fails (raise, per-task timeout, worker crash) degrades to an
**error record** — ``ProblemRecord.error`` is set, the pid is preserved, and
the sweep continues. Error records are excluded from every percentage and
latency average and reported separately.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import PipelineConfig
from repro.core.pipeline import Aivril2Pipeline, run_baseline
from repro.core.result import LatencyBreakdown
from repro.designs.model import TOP_NAME
from repro.eda.toolchain import CacheStats, HdlFile, Language, Toolchain
from repro.evalsuite.suite import Suite, build_suite
from repro.evalsuite.validate import run_golden_tb
from repro.exec.engine import ExecutionEngine
from repro.exec.progress import ProgressEvent, SweepMetrics
from repro.exec.task import Task, TaskOutcome
from repro.llm.profiles import CapabilityProfile, PROFILES
from repro.llm.synthetic import SyntheticDesignLLM
from repro.obs import configure_tracing, get_tracer, set_tracer

log = logging.getLogger(__name__)


@dataclass
class ProblemRecord:
    """Measurements for one problem under one configuration.

    A non-empty ``error`` marks a record whose measurement could not be
    taken (task raised / timed out / its worker crashed); such records keep
    their pid but carry no valid judgments and are excluded from the
    aggregate statistics.
    """

    pid: str
    baseline_syntax_ok: bool = False
    baseline_functional_ok: bool = False
    baseline_latency: float = 0.0
    aivril_syntax_ok: bool = False
    aivril_functional_ok: bool = False
    aivril_latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    syntax_iterations: int = 0
    functional_iterations: int = 0
    wall_seconds: float = 0.0
    error: str = ""


@dataclass
class ConfigResult:
    """Aggregated results for one (model, language) configuration."""

    model: str
    model_display: str
    language: Language
    records: list[ProblemRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def evaluated(self) -> list[ProblemRecord]:
        """Records that actually ran (error records excluded)."""
        return [r for r in self.records if not r.error]

    @property
    def error_records(self) -> list[ProblemRecord]:
        return [r for r in self.records if r.error]

    @property
    def error_count(self) -> int:
        return len(self.error_records)

    def _pct(self, predicate) -> float:
        evaluated = self.evaluated
        if not evaluated:
            return 0.0
        return 100.0 * sum(1 for r in evaluated if predicate(r)) / len(evaluated)

    @property
    def baseline_syntax_pct(self) -> float:
        return self._pct(lambda r: r.baseline_syntax_ok)

    @property
    def baseline_functional_pct(self) -> float:
        return self._pct(lambda r: r.baseline_functional_ok)

    @property
    def aivril_syntax_pct(self) -> float:
        return self._pct(lambda r: r.aivril_syntax_ok)

    @property
    def aivril_functional_pct(self) -> float:
        return self._pct(lambda r: r.aivril_functional_ok)

    @property
    def delta_functional_pct(self) -> float | None:
        """Δ_F of Table 1: relative improvement over the baseline (percent).

        ``None`` when the baseline never passed (the paper prints N/A for
        Llama3-70B VHDL) — including the degenerate empty/all-error case.
        """
        base = self.baseline_functional_pct
        if base == 0.0:
            return None
        return 100.0 * (self.aivril_functional_pct - base) / base

    @property
    def baseline_latency_avg(self) -> float:
        evaluated = self.evaluated
        if not evaluated:
            return 0.0
        return sum(r.baseline_latency for r in evaluated) / len(evaluated)

    @property
    def aivril_latency_avg(self) -> LatencyBreakdown:
        evaluated = self.evaluated
        total = LatencyBreakdown()
        for record in evaluated:
            total.add(record.aivril_latency)
        return total.scaled(1.0 / len(evaluated)) if evaluated else total

    @property
    def mean_syntax_iterations(self) -> float:
        """Average syntax-loop cycles *to converge* (the paper's metric).

        Only runs that entered the loop and ended syntax-clean count;
        non-converging runs have no convergence cycle count.
        """
        entered = [
            r for r in self.evaluated
            if r.syntax_iterations > 0 and r.aivril_syntax_ok
        ]
        if not entered:
            return 0.0
        return sum(r.syntax_iterations for r in entered) / len(entered)

    @property
    def mean_functional_iterations(self) -> float:
        """Average functional-loop cycles to converge (see above)."""
        entered = [
            r for r in self.evaluated
            if r.functional_iterations > 0 and r.aivril_functional_ok
        ]
        if not entered:
            return 0.0
        return sum(r.functional_iterations for r in entered) / len(entered)


# ---------------------------------------------------------------------------
# per-problem task machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunnerSettings:
    """Everything a worker needs to reconstruct the experiment context."""

    max_syntax_iterations: int = 6
    max_functional_iterations: int = 6
    testbench_first: bool = True
    testbench_quality: str = "full"
    #: when set, worker processes attach a JSONL tracer to this file
    trace_path: str | None = None


@dataclass
class _TaskPayload:
    """What one problem task ships back: the record + cache counters."""

    record: ProblemRecord
    cache_delta: CacheStats


class _TaskContext:
    """Per-process experiment state: the suite, one shared toolchain, and
    lazily-built configs.

    One context serves every (profile, language) configuration of a sweep.
    The toolchain (and so its result store) is shared by all of them; the
    LLM/pipeline pair is built once per configuration per process and
    reused across that process's share of the problems.
    """

    def __init__(self, suite: Suite, settings: RunnerSettings):
        self.suite = suite
        self.settings = settings
        self.toolchain = Toolchain()
        self._problems = {p.pid: p for p in suite.problems}
        self._configs: dict[
            tuple[str, Language],
            tuple[SyntheticDesignLLM, Aivril2Pipeline],
        ] = {}

    def _config(self, profile: CapabilityProfile, language: Language):
        key = (profile.name, language)
        if key not in self._configs:
            settings = self.settings
            llm = SyntheticDesignLLM(
                profile, self.suite,
                testbench_quality=settings.testbench_quality,
            )
            pipeline = Aivril2Pipeline(
                llm,
                self.toolchain,
                PipelineConfig(
                    language=language,
                    max_syntax_iterations=settings.max_syntax_iterations,
                    max_functional_iterations=settings.max_functional_iterations,
                    testbench_first=settings.testbench_first,
                ),
            )
            self._configs[key] = (llm, pipeline)
        return self._configs[key]

    def run_problem(
        self, profile: CapabilityProfile, language: Language, pid: str
    ) -> _TaskPayload:
        """Measure one problem under one configuration (a pure task)."""
        llm, pipeline = self._config(profile, language)
        toolchain = self.toolchain
        problem = self._problems[pid]
        stats_before = toolchain.cache_stats.snapshot()
        started = _time.perf_counter()
        record = ProblemRecord(pid=problem.pid)

        with get_tracer().span(
            "task.problem",
            key=f"{profile.name}/{language.value}/{pid}",
            model=profile.name,
            language=language.value,
            problem=pid,
        ) as span:
            baseline = run_baseline(llm, problem.prompt, language)
            record.baseline_latency = baseline.latency_seconds
            record.baseline_syntax_ok = _compiles(
                baseline.rtl, language, toolchain
            )
            record.baseline_functional_ok = _passes_golden(
                problem, baseline.rtl, language, toolchain
            )

            run = pipeline.run(problem.prompt)
            record.aivril_latency = run.latency
            record.syntax_iterations = run.syntax_iterations
            record.functional_iterations = run.functional_iterations
            record.aivril_syntax_ok = _compiles(run.rtl, language, toolchain)
            record.aivril_functional_ok = _passes_golden(
                problem, run.rtl, language, toolchain
            )
            record.wall_seconds = _time.perf_counter() - started
            cache_delta = toolchain.cache_stats.delta(stats_before)
            span.set_attrs(
                baseline_syntax_ok=record.baseline_syntax_ok,
                baseline_functional_ok=record.baseline_functional_ok,
                aivril_syntax_ok=record.aivril_syntax_ok,
                aivril_functional_ok=record.aivril_functional_ok,
                syntax_iterations=record.syntax_iterations,
                functional_iterations=record.functional_iterations,
                latency_generation=run.latency.generation_llm,
                latency_syntax=run.latency.syntax_loop,
                latency_functional=run.latency.functional_loop,
                prompt_tokens=run.tokens.prompt_tokens,
                completion_tokens=run.tokens.completion_tokens,
                cache_hits=cache_delta.hits,
                cache_misses=cache_delta.misses,
            )
        return _TaskPayload(record=record, cache_delta=cache_delta)


def _compiles(rtl: str, language: Language, toolchain: Toolchain) -> bool:
    """pass@1_S judgment: the generated design unit compiles on its own."""
    files = [HdlFile(f"{TOP_NAME}{language.file_extension}", rtl, language)]
    return toolchain.compile(files, TOP_NAME).ok


def _passes_golden(
    problem, rtl: str, language: Language, toolchain: Toolchain
) -> bool:
    """pass@1_F judgment: the suite's golden testbench passes."""
    return run_golden_tb(problem, language, rtl, toolchain)[0]


#: process-local context, installed by :func:`_init_worker` (suites hold
#: non-picklable callables, so workers inherit it through fork rather than
#: receiving it over a pipe)
_CONTEXT: _TaskContext | None = None


def _init_worker(suite: Suite, settings: RunnerSettings) -> None:
    global _CONTEXT
    _CONTEXT = _TaskContext(suite, settings)
    # idempotent: under fork the inherited tracer already targets this path
    configure_tracing(settings.trace_path)


def _run_problem(
    profile: CapabilityProfile, language: Language, pid: str
) -> _TaskPayload:
    if _CONTEXT is None:
        raise RuntimeError("worker context not initialized")
    return _CONTEXT.run_problem(profile, language, pid)


def _task_entry(
    profile: CapabilityProfile, language: Language, pid: str
) -> _TaskPayload:
    # stable, picklable entry point; the indirection keeps `_run_problem`
    # late-bound so fault-injection tests can swap it per-sweep
    return _run_problem(profile, language, pid)


# ---------------------------------------------------------------------------


class ExperimentRunner:
    """Runs the paper's evaluation protocol.

    Parameters beyond the protocol knobs:

    * ``workers`` — process count for the sweep (1 = serial, the default);
    * ``task_timeout`` / ``task_retries`` — per-problem fault budget when
      running in parallel (a hung or crashed worker costs one retry, then
      degrades to an error record instead of killing the sweep);
    * ``progress`` — callback receiving ``(ProgressEvent, SweepMetrics)``
      for every engine event, after the metrics have folded it;
    * ``trace_path`` — when set, the sweep records a JSONL span trace to
      this file (see :mod:`repro.obs`); worker processes append to the
      same file, every process flushes its metrics there periodically,
      and ``repro trace summarize`` reads it back.
    """

    def __init__(
        self,
        suite: Suite | None = None,
        *,
        max_syntax_iterations: int = 6,
        max_functional_iterations: int = 6,
        testbench_first: bool = True,
        testbench_quality: str = "full",
        workers: int = 1,
        task_timeout: float | None = None,
        task_retries: int = 1,
        progress: Callable[[ProgressEvent, SweepMetrics], None] | None = None,
        trace_path: str | None = None,
    ):
        self.suite = suite or build_suite()
        self.max_syntax_iterations = max_syntax_iterations
        self.max_functional_iterations = max_functional_iterations
        self.testbench_first = testbench_first
        self.testbench_quality = testbench_quality
        self.workers = workers
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.progress = progress
        self.trace_path = str(trace_path) if trace_path else None
        #: metrics of the most recent sweep (populated by every run)
        self.metrics = SweepMetrics()

    @property
    def _settings(self) -> RunnerSettings:
        return RunnerSettings(
            max_syntax_iterations=self.max_syntax_iterations,
            max_functional_iterations=self.max_functional_iterations,
            testbench_first=self.testbench_first,
            testbench_quality=self.testbench_quality,
            trace_path=self.trace_path,
        )

    # ------------------------------------------------------------------

    def run_config(
        self, profile: CapabilityProfile, language: Language
    ) -> ConfigResult:
        """Baseline + AIVRIL2 sweep for one model/language pair."""
        return self._run_configs([(profile, language)])[0]

    def run_all(
        self,
        profiles: list[CapabilityProfile] | None = None,
        languages: tuple[Language, ...] = (Language.VERILOG, Language.VHDL),
    ) -> list[ConfigResult]:
        """The full Table 1 sweep (3 models × 2 languages by default).

        All configurations share one problem-major work-list, so with
        ``workers=N`` the fan-out covers the whole (profile × language ×
        problem) cube.
        """
        profiles = profiles if profiles is not None else PROFILES
        configs = [
            (profile, language)
            for profile in profiles
            for language in languages
        ]
        return self._run_configs(configs)

    # ------------------------------------------------------------------

    def _run_configs(
        self, configs: list[tuple[CapabilityProfile, Language]]
    ) -> list[ConfigResult]:
        tasks = []
        for problem in self.suite:
            for profile, language in configs:
                tasks.append(Task(
                    index=len(tasks),
                    key=f"{profile.name}/{language.value}/{problem.pid}",
                    fn=_task_entry,
                    args=(profile, language, problem.pid),
                ))
        metrics = SweepMetrics(total=len(tasks))
        self.metrics = metrics

        previous = get_tracer()
        if self.trace_path is not None:
            # each sweep starts a fresh trace file, so one summary maps to
            # exactly one sweep
            open(self.trace_path, "w").close()
            configure_tracing(self.trace_path)
        tracer = get_tracer()
        user_progress = self.progress

        def progress(event: ProgressEvent) -> None:
            # the user's callback runs last, so it always sees the metrics
            # with this event and its task payload folded in
            metrics.observe_event(event)
            self._fold_payload(event, metrics)
            if user_progress is not None:
                user_progress(event, metrics)

        engine = ExecutionEngine(
            workers=self.workers,
            timeout=self.task_timeout,
            retries=self.task_retries,
            progress=progress,
            initializer=_init_worker,
            initargs=(self.suite, self._settings),
        )
        try:
            tracer.write_meta(
                workers=self.workers,
                tasks=len(tasks),
                configs=len(configs),
                problems=len(self.suite),
            )
            with tracer.span(
                "sweep.run",
                workers=self.workers,
                tasks=len(tasks),
                configs=len(configs),
            ):
                outcomes = engine.run(tasks)
        finally:
            tracer.flush_metrics()
            set_tracer(previous)

        results = [
            ConfigResult(
                model=profile.name,
                model_display=profile.display_name,
                language=language,
            )
            for profile, language in configs
        ]
        for index, outcome in enumerate(outcomes):
            problem, config = divmod(index, len(configs))
            results[config].records.append(
                self._to_record(self.suite.problems[problem].pid, outcome)
            )
        return results

    @staticmethod
    def _to_record(pid: str, outcome: TaskOutcome) -> ProblemRecord:
        if outcome.ok:
            return outcome.value.record
        reason = outcome.error.strip().splitlines()
        summary = reason[-1] if reason else outcome.status
        return ProblemRecord(
            pid=pid, error=f"{outcome.status}: {summary}"
        )

    # the golden-testbench judgment stays reachable as a static helper: the
    # multi-sample pass@k harness scores candidates with it directly
    _passes_golden = staticmethod(_passes_golden)

    @staticmethod
    def _fold_payload(event: ProgressEvent, metrics: SweepMetrics) -> None:
        """Fold the runner-specific task payload (cache counters, modeled
        per-stage latency) into the sweep metrics — the half of the
        aggregation that :meth:`SweepMetrics.observe_event` cannot do
        because it does not understand ``_TaskPayload``."""
        outcome = event.outcome
        if outcome is not None and outcome.ok:
            payload: _TaskPayload = outcome.value
            metrics.cache_hits += payload.cache_delta.hits
            metrics.cache_misses += payload.cache_delta.misses
            latency = payload.record.aivril_latency
            metrics.stage_seconds["generation"] += latency.generation_llm
            metrics.stage_seconds["syntax"] += latency.syntax_loop
            metrics.stage_seconds["functional"] += latency.functional_loop

"""Differential test: parallel execution changes nothing but the wall-clock.

A reduced but representative slice of the paper's protocol (20 problems ×
both languages × two model profiles) runs through ``workers=1`` and
``workers=4``. The merged ``ConfigResult.records`` must be identical
field-by-field — pids, pass booleans, iteration counts, modeled latencies —
and every aggregate percentage must match *exactly* (``==``, not approx):
the parallel engine merges by problem order and every task is a pure
function of the deterministic defect plan.

``wall_seconds`` is the one deliberate exception: it reports true elapsed
time, which no scheduler can (or should) reproduce.
"""

import pytest

from repro.eda.toolchain import Language
from repro.eval.runner import (
    ConfigResult,
    ExperimentRunner,
    RunnerSettings,
    _TaskContext,
)
from repro.evalsuite.suite import build_suite
from repro.llm.profiles import CLAUDE_35_SONNET, GPT_4O

PROBLEM_COUNT = 20
PROFILES_UNDER_TEST = [GPT_4O, CLAUDE_35_SONNET]
LANGUAGES = (Language.VERILOG, Language.VHDL)


def deterministic_fields(record):
    """Everything in a ProblemRecord except the true wall-clock."""
    latency = record.aivril_latency
    return (
        record.pid,
        record.baseline_syntax_ok,
        record.baseline_functional_ok,
        record.baseline_latency,
        record.aivril_syntax_ok,
        record.aivril_functional_ok,
        record.syntax_iterations,
        record.functional_iterations,
        (
            latency.generation_llm,
            latency.syntax_llm,
            latency.syntax_tool,
            latency.functional_llm,
            latency.functional_tool,
        ),
        record.error,
    )


def run_sweep(**kwargs) -> list[ConfigResult]:
    runner = ExperimentRunner(
        suite=build_suite().head(PROBLEM_COUNT), **kwargs
    )
    return runner.run_all(
        profiles=PROFILES_UNDER_TEST, languages=LANGUAGES
    )


@pytest.fixture(scope="module")
def serial_results():
    return run_sweep(workers=1)


@pytest.fixture(scope="module")
def parallel_results():
    return run_sweep(workers=4)


class TestParallelEqualsSerial:
    def test_sweep_shape(self, serial_results, parallel_results):
        assert len(serial_results) == len(PROFILES_UNDER_TEST) * len(LANGUAGES)
        assert len(parallel_results) == len(serial_results)
        for result in parallel_results:
            assert result.total == PROBLEM_COUNT
            assert result.error_count == 0

    def test_config_identity(self, serial_results, parallel_results):
        for serial, parallel in zip(serial_results, parallel_results):
            assert serial.model == parallel.model
            assert serial.model_display == parallel.model_display
            assert serial.language is parallel.language

    def test_records_identical_field_by_field(
        self, serial_results, parallel_results
    ):
        for serial, parallel in zip(serial_results, parallel_results):
            serial_fields = [deterministic_fields(r) for r in serial.records]
            parallel_fields = [
                deterministic_fields(r) for r in parallel.records
            ]
            assert serial_fields == parallel_fields, (
                f"{serial.model}/{serial.language.value}: parallel records "
                f"diverged from serial"
            )

    def test_pids_in_suite_order(self, parallel_results):
        expected = [p.pid for p in build_suite().head(PROBLEM_COUNT)]
        for result in parallel_results:
            assert [r.pid for r in result.records] == expected

    def test_percentages_match_exactly(
        self, serial_results, parallel_results
    ):
        for serial, parallel in zip(serial_results, parallel_results):
            assert serial.baseline_syntax_pct == parallel.baseline_syntax_pct
            assert (
                serial.baseline_functional_pct
                == parallel.baseline_functional_pct
            )
            assert serial.aivril_syntax_pct == parallel.aivril_syntax_pct
            assert (
                serial.aivril_functional_pct
                == parallel.aivril_functional_pct
            )
            assert (
                serial.delta_functional_pct == parallel.delta_functional_pct
            )
            assert (
                serial.mean_syntax_iterations
                == parallel.mean_syntax_iterations
            )
            assert (
                serial.mean_functional_iterations
                == parallel.mean_functional_iterations
            )

    def test_latency_averages_match_exactly(
        self, serial_results, parallel_results
    ):
        for serial, parallel in zip(serial_results, parallel_results):
            assert (
                serial.baseline_latency_avg == parallel.baseline_latency_avg
            )
            serial_avg = serial.aivril_latency_avg
            parallel_avg = parallel.aivril_latency_avg
            assert serial_avg.generation_llm == parallel_avg.generation_llm
            assert serial_avg.syntax_loop == parallel_avg.syntax_loop
            assert serial_avg.functional_loop == parallel_avg.functional_loop


class TestCacheNeutrality:
    """The result store must change wall-clock only, never records."""

    def test_uncached_serial_equals_cached_serial(self, serial_results):
        # the sweep shares one store across every task and configuration;
        # a fresh task context (so a fresh toolchain and store) per
        # (problem, configuration) has no cross-task or cross-config hits.
        # Each context still holds the whole suite: the defect plan, and so
        # every record, depends on which problems the suite contains.
        suite = build_suite().head(PROBLEM_COUNT)
        configs = [
            (profile, language)
            for profile in PROFILES_UNDER_TEST
            for language in LANGUAGES
        ]
        for (profile, language), shared in zip(configs, serial_results):
            isolated = [
                _TaskContext(suite, RunnerSettings())
                .run_problem(profile, language, problem.pid).record
                for problem in suite
            ]
            assert (
                [deterministic_fields(r) for r in shared.records]
                == [deterministic_fields(r) for r in isolated]
            )


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_other_worker_counts(self, workers, serial_results):
        results = ExperimentRunner(
            suite=build_suite().head(8), workers=workers
        ).run_all(profiles=[GPT_4O], languages=LANGUAGES)
        reference = ExperimentRunner(
            suite=build_suite().head(8)
        ).run_all(profiles=[GPT_4O], languages=LANGUAGES)
        for got, want in zip(results, reference):
            assert (
                [deterministic_fields(r) for r in got.records]
                == [deterministic_fields(r) for r in want.records]
            )

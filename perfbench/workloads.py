"""The benchmark's workloads: ``sweep``, ``fuzz`` and ``resample``.

Every workload turns its seed into a list of *passes*. A pass is a fixed,
seed-determined unit of work run with fresh program objects (runners,
toolchains, LLMs), so pass ``k`` of a seed always does the same work and
produces the same outputs. A pass calls ``task_done(seconds)`` after each
task and returns what it produced; the products are checked after the
timed phase, against the defect plan or oracle verdict that every seed
has and, for the stored seeds, against ``expected/<workload>.json``.
``tail_percentile`` is the percentile a workload's ``task_tail_ms``
reports: fixed per workload, so that a run's task count never changes
which percentile is read.

All load runs serially in this process (``workers=1``).
"""

from __future__ import annotations

import random
import time

from repro.core.config import PipelineConfig
from repro.core.pipeline import Aivril2Pipeline, run_baseline
from repro.designs.mutations import MutationError, apply_mutation
from repro.eda.toolchain import Language, Toolchain
from repro.eval.runner import ExperimentRunner
from repro.evalsuite.suite import build_suite
from repro.llm.profiles import PROFILES
from repro.llm.synthetic import SyntheticDesignLLM, build_defect_plan
from repro.qa.fuzz import run_fuzz
from repro.qa.oracle import FailureClass

clock = time.perf_counter

WORKERS = 1
CONFIGS = [
    (profile, language) for profile in PROFILES for language in Language
]
_PROFILES = {profile.name: profile for profile in PROFILES}


def stratified_chunks(suite, seed: int, size: int) -> list[list[str]]:
    """The suite's problem ids in a seeded order, cut into ``size`` chunks.

    Each problem gets the key ``(rank + u) / family_size`` from a seeded
    shuffle of its family, so every chunk holds each family in proportion
    to its size. A plain ``head(n)`` would draw only gates, the cheapest
    family.
    """
    rng = random.Random(seed)
    keyed = []
    for family in sorted(suite.families):
        pids = [problem.pid for problem in suite.families[family]]
        rng.shuffle(pids)
        for rank, pid in enumerate(pids):
            keyed.append(((rank + rng.random()) / len(pids), pid))
    order = [pid for _, pid in sorted(keyed)]
    return [order[i:i + size] for i in range(0, len(order), size)]


def syntax_masked(plan, problem, language) -> bool:
    """Whether the functional defect removes the syntax defect's anchor.

    The synthetic LLM applies the functional mutation first and skips a
    syntax mutation whose anchor it destroyed (``SyntheticDesignLLM._render``),
    so such a first answer compiles although the plan gives it a syntax
    defect (``struct_addsub4`` in VHDL, where both edit the same port map).
    """
    if not (plan.has_syntax_defect and plan.has_functional_defect):
        return False
    source = apply_mutation(
        problem.reference[language], plan.functional_mutation
    )
    try:
        apply_mutation(source, plan.syntax_mutations[0])
    except MutationError:
        return True
    return False


def plan_verdicts(plan, problem, language) -> str:
    """Baseline syntax, baseline functional, AIVRIL2 syntax and AIVRIL2
    functional verdicts one problem's defect plan implies, as ``0``/``1``."""
    base_syntax = (
        not plan.has_syntax_defect or syntax_masked(plan, problem, language)
    )
    final_syntax = base_syntax or plan.syntax_repairable
    flags = (
        base_syntax,
        base_syntax and not plan.has_functional_defect,
        final_syntax,
        final_syntax and (
            not plan.has_functional_defect or plan.functional_repairable
        ),
    )
    return "".join(str(int(flag)) for flag in flags)


def contradicts_plan(got: str, want: str) -> bool:
    """Whether verdicts contradict the defect plan. ``got`` and ``want``
    hold the baseline flags, then as many AIVRIL2 flags. A baseline flag
    must equal the plan's. An AIVRIL2 flag may fall short of the plan but
    not exceed it: a repair loop can fail where the plan lets it succeed
    (a functional fix that brings back an already repaired syntax defect
    exhausts the loop), but never passes what the plan leaves broken."""
    half = len(got) // 2
    return got[:half] != want[:half] or any(
        g > w for g, w in zip(got[half:], want[half:])
    )


class Sweep:
    """The paper's Table 1 protocol over a seeded draw of suite problems."""

    name = "sweep"
    #: problems per pass; 12 passes cover the 156-problem suite
    chunk = 13
    tail_percentile = 95
    trace_passes = 5

    def setup(self, seed: int) -> None:
        self.suite = build_suite()
        self.chunks = stratified_chunks(self.suite, seed, self.chunk)
        self.record_passes = len(self.chunks)

    def key(self, k: int) -> str:
        return str(k % len(self.chunks))

    def run_pass(self, k: int, task_done):
        subset = self.suite.subset(self.chunks[k % len(self.chunks)])

        def progress(event, metrics):
            if event.outcome is not None:
                task_done(event.outcome.seconds)

        results = ExperimentRunner(
            suite=subset, workers=WORKERS, progress=progress
        ).run_all()
        outputs = {}
        for result in results:
            records = outputs[f"{result.model}/{result.language.value}"] = {}
            for record in result.records:
                records[record.pid] = (
                    f"error: {record.error}" if record.error else
                    "".join(str(int(flag)) for flag in (
                        record.baseline_syntax_ok,
                        record.baseline_functional_ok,
                        record.aivril_syntax_ok,
                        record.aivril_functional_ok,
                    ))
                    + f"/{record.syntax_iterations}"
                    + f"/{record.functional_iterations}"
                )
        return subset, outputs

    def outputs(self, produced):
        return produced[1]

    def check(self, produced, stored) -> list[str]:
        """One failure per record whose verdicts contradict the defect plan
        or, on a stored seed, whose verdicts or iteration counts differ."""
        subset, outputs = produced
        problems = {problem.pid: problem for problem in subset.problems}
        failures = []
        for config, records in outputs.items():
            model, language = config.split("/")
            language = Language(language)
            plans = build_defect_plan(_PROFILES[model], language, subset)
            for pid, got in records.items():
                want = plan_verdicts(plans[pid], problems[pid], language)
                if contradicts_plan(got.split("/")[0], want):
                    failures.append(f"{config}/{pid}: {got}, plan {want}")
                elif stored is not None and got != stored[config][pid]:
                    failures.append(
                        f"{config}/{pid}: {got}, stored {stored[config][pid]}"
                    )
        return failures


class Fuzz:
    """``run_fuzz`` campaigns: every program unique, fresh Toolchain each."""

    name = "fuzz"
    #: programs per campaign (one campaign per pass)
    count = 16
    tail_percentile = 90
    trace_passes = 8
    record_passes = 32

    def setup(self, seed: int) -> None:
        self.seed = seed

    def key(self, k: int) -> str:
        return str(k)

    def run_pass(self, k: int, task_done):
        def progress(event):
            if event.outcome is not None:
                task_done(event.outcome.seconds)

        return run_fuzz(
            self.seed * 1000 + k, self.count, workers=WORKERS,
            progress=progress,
        )

    def outputs(self, report):
        return {
            str(result.index): " ".join((
                result.failure_class.value,
                result.verilog_sha[:16],
                result.vhdl_sha[:16],
            ))
            for result in report.results
        }

    def check(self, report, stored) -> list[str]:
        """One failure per program whose class is not ``ok`` or, on a stored
        seed, whose class or rendering hashes differ."""
        failures = []
        for index, got in self.outputs(report).items():
            if not got.startswith(FailureClass.OK.value + " "):
                failures.append(f"program {index}: {got}")
            elif stored is not None and got != stored[index]:
                failures.append(
                    f"program {index}: {got}, stored {stored[index]}"
                )
        return failures


class Resample:
    """pass@k sampling (``repro.eval.sampling``): one task per sample and
    problem, driven through the calls ``run_sampling_experiment`` makes.

    A pass is one ``run_sampling_experiment`` of one config on a sixth of
    the suite. Pass ``k`` takes chunk ``k mod 6`` under config
    ``(k + k // 6) mod 6``, so every six passes cover the whole suite and
    every 36 passes pair each chunk with each config once. A run thus sees
    every problem whatever its seed, and the seed only changes which
    problems share a pass (and so a toolchain) and under which config.
    """

    name = "resample"
    #: samples per problem
    samples = 5
    tail_percentile = 95
    trace_passes = len(CONFIGS)
    record_passes = len(CONFIGS) ** 2

    def setup(self, seed: int) -> None:
        self.suite = build_suite()
        size = -(-len(self.suite) // len(CONFIGS))
        self.chunks = stratified_chunks(self.suite, seed, size)

    def key(self, k: int) -> str:
        return str(k % self.record_passes)

    def assignment(self, k: int):
        """(chunk index, (profile, language)) of pass ``k``."""
        rounds = len(self.chunks)
        return k % rounds, CONFIGS[(k + k // rounds) % len(CONFIGS)]

    def run_pass(self, k: int, task_done):
        chunk, (profile, language) = self.assignment(k)
        subset = self.suite.subset(self.chunks[chunk])
        config = f"{profile.name}/{language.value}"
        correct = {problem.pid: [0, 0] for problem in subset}
        failures = []
        # one uncached toolchain shared by every sample of the config, as in
        # run_sampling_experiment
        toolchain = Toolchain()
        for sample in range(self.samples):
            llm = SyntheticDesignLLM(profile, subset, variant=sample)
            pipeline = Aivril2Pipeline(
                llm, toolchain, PipelineConfig(language=language)
            )
            for problem in subset:
                started = clock()
                try:
                    baseline = run_baseline(llm, problem.prompt, language)
                    baseline_ok = ExperimentRunner._passes_golden(
                        problem, baseline.rtl, language, toolchain
                    )
                    run = pipeline.run(problem.prompt)
                    aivril_ok = ExperimentRunner._passes_golden(
                        problem, run.rtl, language, toolchain
                    )
                except Exception as exc:  # noqa: BLE001 - a failed task
                    failures.append(
                        f"{config}/{problem.pid}/sample {sample}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    correct[problem.pid][0] += baseline_ok
                    correct[problem.pid][1] += aivril_ok
                    want = plan_verdicts(
                        llm.plan(language)[problem.pid], problem, language
                    )
                    got = f"{int(baseline_ok)}{int(aivril_ok)}"
                    if contradicts_plan(got, want[1] + want[3]):
                        failures.append(
                            f"{config}/{problem.pid}/sample {sample}: "
                            f"{got}, plan {want[1] + want[3]}"
                        )
                task_done(clock() - started)
        return {config: correct}, failures

    def outputs(self, produced):
        return produced[0]

    def check(self, produced, stored) -> list[str]:
        """One failure per task that raised or contradicts the defect plan,
        plus, on a stored seed, one per problem whose correct counts
        differ."""
        counts, failures = produced
        failures = list(failures)
        if stored is not None:
            for config, problems in counts.items():
                for pid, got in problems.items():
                    if got != stored[config][pid]:
                        failures.append(
                            f"{config}/{pid}: correct {got}, stored "
                            f"{stored[config][pid]}"
                        )
        return failures


WORKLOADS = {workload.name: workload for workload in (Sweep, Fuzz, Resample)}

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate benchmark problems (optionally one family);
* ``show`` — print a problem's spec, reference, or golden testbench;
* ``run`` — run the AIVRIL2 pipeline on one problem with a simulated model;
* ``sweep`` — run the paper's experiments and print Table 1/2 or Figure 3
  (``--trace PATH`` records a span trace of the whole sweep); it exits 1
  when any problem task produced an error record;
* ``trace`` — summarize (optionally ``--by-agent``) or validate a recorded
  trace file, extract its ``critical-path``, or emit folded stacks for
  flamegraph tooling (``flame``); the summary includes the metrics the
  trace carries, merged across processes;
* ``bench`` — perf-regression gate: diff fresh ``BENCH_*.json`` reports
  against the committed baselines (``check``);
* ``validate`` — check suite integrity (reference passes, mutations behave);
* ``qa`` — differential fuzzing of the two language flows (``fuzz``,
  optionally with proof-based verdicts via ``--formal``), failing-case
  minimization (``reduce``), and regression-corpus replay (``replay``);
* ``formal`` — bounded equivalence proving of rendered designs against the
  reference model (``prove``) and reset/X-freedom contract checking
  (``check``), all in pure Python with no external solver.

Everything the CLI does is also available as a library API; the CLI exists
so the artifacts can be regenerated without writing Python.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.core.config import PipelineConfig
from repro.core.pipeline import Aivril2Pipeline
from repro.eda.toolchain import Language, Toolchain
from repro.eval.figures import render_figure3
from repro.eval.runner import ExperimentRunner
from repro.eval.tables import render_table1, render_table2
from repro.evalsuite.suite import build_suite
from repro.evalsuite.validate import run_golden_tb, validate_problem
from repro.exec.progress import (
    TASK_DONE,
    TASK_ERROR,
    TASK_RETRY,
    format_progress_line,
)
from repro.llm.profiles import PROFILES, profile_for
from repro.llm.synthetic import SyntheticDesignLLM
from repro.obs import render_trace_summary, summarize_trace, validate_trace

LOG_LEVELS = ("debug", "info", "warning", "error")


def _at_least(floor: int):
    """An argparse type: an int no smaller than *floor*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be >= {floor}, got {value}"
            )
        return value

    return parse


def _language(text: str) -> Language:
    try:
        return Language(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown language {text!r}; choose 'verilog' or 'vhdl'"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIVRIL2 reproduction: EDA-aware RTL generation harness",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="emit stdlib logging from the pipeline/toolchain/engine to "
             "stderr at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list benchmark problems")
    list_cmd.add_argument("--family", help="restrict to one family")

    show = sub.add_parser("show", help="print one problem's artifacts")
    show.add_argument("problem")
    show.add_argument(
        "--what",
        choices=["spec", "reference", "testbench"],
        default="spec",
    )
    show.add_argument("--language", type=_language, default=Language.VERILOG)

    run = sub.add_parser("run", help="run the pipeline on one problem")
    run.add_argument("problem")
    run.add_argument(
        "--model",
        default="claude-3.5-sonnet",
        help="simulated model: " + ", ".join(p.name for p in PROFILES),
    )
    run.add_argument("--language", type=_language, default=Language.VERILOG)
    run.add_argument(
        "--transcript", action="store_true", help="print the agent transcript"
    )

    sweep = sub.add_parser("sweep", help="run the paper's experiments")
    sweep.add_argument(
        "--artifact",
        choices=["table1", "table2", "figure3"],
        default="table1",
    )
    sweep.add_argument(
        "--limit", type=_at_least(0), default=0,
        help="restrict to the first N problems (0 = full suite)",
    )
    sweep.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="worker processes for the sweep (1 = serial; results are "
             "record-for-record identical at any worker count)",
    )
    sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-problem wall-clock budget when workers > 1; a hung task "
             "degrades to an error record instead of stalling the sweep",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="stream per-task progress (tasks done, cache hit rate, "
             "latency) to stderr",
    )
    sweep.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL span and metrics trace of the sweep to PATH "
             "(inspect with 'repro trace summarize PATH')",
    )

    trace = sub.add_parser(
        "trace", help="inspect a recorded sweep trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace: loop iterations per config, per-stage "
             "latency, cache hit rate, token totals",
    )
    trace_summarize.add_argument("path")
    trace_summarize.add_argument(
        "--by-agent", action="store_true",
        help="additionally attribute measured wall time to the paper's "
             "code/review/verification agents, per configuration",
    )
    trace_validate = trace_sub.add_parser(
        "validate", help="check every trace record against the schema"
    )
    trace_validate.add_argument("path")
    trace_critical = trace_sub.add_parser(
        "critical-path",
        help="the longest wall-clock span chain with per-span self-time "
             "attribution (self times sum to the root span's wall time)",
    )
    trace_critical.add_argument("path")
    trace_flame = trace_sub.add_parser(
        "flame",
        help="emit folded stacks ('stack;path count' lines) for standard "
             "flamegraph tooling",
    )
    trace_flame.add_argument("path")
    trace_flame.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the folded stacks here instead of stdout",
    )

    bench = sub.add_parser(
        "bench", help="benchmark perf-regression gating"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="diff fresh BENCH_*.json reports against committed baselines "
             "under a relative tolerance",
    )
    bench_check.add_argument(
        "--baselines", default="benchmarks/baselines", metavar="DIR",
        help="committed baseline directory (default: benchmarks/baselines)",
    )
    bench_check.add_argument(
        "--fresh", default=".", metavar="DIR",
        help="directory holding freshly generated BENCH_*.json reports "
             "(default: current directory)",
    )
    bench_check.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed relative regression before a metric counts as "
             "regressed (default: 0.35)",
    )
    bench_check.add_argument(
        "--hard", action="append", default=None, metavar="TIER",
        help="tier name (substring) whose regressions fail the gate; "
             "repeatable (default: sim). Others only warn",
    )
    bench_check.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but never fail (for noisy shared runners)",
    )

    validate = sub.add_parser("validate", help="check suite integrity")
    validate.add_argument("--limit", type=_at_least(0), default=0)
    validate.add_argument("--language", type=_language, default=None)

    qa = sub.add_parser(
        "qa", help="cross-language differential fuzzing and conformance QA"
    )
    qa_sub = qa.add_subparsers(dest="qa_command", required=True)

    fuzz = qa_sub.add_parser(
        "fuzz",
        help="generate random designs, simulate both languages, and "
             "compare against the Python reference model",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--count", type=_at_least(1), default=50,
        help="number of generated programs (each is a pure function of "
             "seed and index)",
    )
    fuzz.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="worker processes; the report is identical at any count",
    )
    fuzz.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-program wall-clock budget when workers > 1",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write every divergence found into this corpus directory as "
             "a replayable JSON case",
    )
    fuzz.add_argument(
        "--formal", action="store_true",
        help="additionally prove or refute every program against the "
             "reference model; any proof-vs-simulation inconsistency fails "
             "the campaign",
    )
    fuzz.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL span and metrics trace of the campaign "
             "(inspect with 'repro trace summarize PATH')",
    )

    reduce = qa_sub.add_parser(
        "reduce",
        help="shrink a failing case to a minimal reproducer that keeps "
             "the same oracle failure class",
    )
    reduce.add_argument("case", help="path to a QA case JSON file")
    reduce.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the reduced case here (default: print a summary only)",
    )
    reduce.add_argument(
        "--max-checks", type=int, default=400,
        help="oracle-run budget for the shrink search",
    )

    replay = qa_sub.add_parser(
        "replay",
        help="re-judge every regression-corpus case in both languages "
             "against its recorded failure class (stored formal witnesses "
             "are re-verified through simulation)",
    )
    replay.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus directory (default: the repository's tests/corpus)",
    )

    formal = sub.add_parser(
        "formal",
        help="proof-based equivalence and contract checking (pure Python)",
    )
    formal_sub = formal.add_subparsers(dest="formal_command", required=True)

    prove = formal_sub.add_parser(
        "prove",
        help="prove rendered designs equivalent to the reference model, or "
             "refute them with a replayable counterexample",
    )
    prove.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="prove every case in this corpus directory (default: the "
             "repository's tests/corpus when --count is not given)",
    )
    prove.add_argument("--seed", type=int, default=0)
    prove.add_argument(
        "--count", type=_at_least(0), default=0,
        help="prove this many generated fuzz programs instead of the corpus",
    )
    prove.add_argument(
        "--depth", type=int, default=None,
        help="BMC unrolling bound for sequential designs",
    )
    prove.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="worker processes for generated-program proving",
    )

    formal_check = formal_sub.add_parser(
        "check",
        help="check the reset and X-freedom contracts of rendered designs",
    )
    formal_check.add_argument(
        "case", nargs="?", default=None,
        help="a QA case JSON file (default: generated specs via --seed)",
    )
    formal_check.add_argument("--seed", type=int, default=0)
    formal_check.add_argument(
        "--count", type=_at_least(1), default=8,
        help="number of generated specs to check when no case file is given",
    )
    formal_check.add_argument(
        "--depth", type=int, default=None,
        help="cycles of X-freedom unrolling after reset",
    )

    return parser


# ---------------------------------------------------------------------------


def _cmd_list(args, out) -> int:
    suite = build_suite()
    families = suite.families
    for family, problems in families.items():
        if args.family and family != args.family:
            continue
        out.write(f"{family} ({len(problems)} problems)\n")
        for problem in problems:
            kind = "seq " if problem.clocked else "comb"
            out.write(f"  {problem.pid:<24} [{kind}] {problem.prompt[:60]}\n")
    if args.family and args.family not in families:
        out.write(f"unknown family {args.family!r}; "
                  f"known: {', '.join(sorted(families))}\n")
        return 1
    return 0


def _cmd_show(args, out) -> int:
    suite = build_suite()
    try:
        problem = suite.get(args.problem)
    except KeyError as exc:
        out.write(f"{exc}\n")
        return 1
    if args.what == "spec":
        out.write(problem.prompt + "\n")
    elif args.what == "reference":
        out.write(problem.reference[args.language])
    else:
        out.write(problem.golden_tb[args.language])
    return 0


def _cmd_run(args, out) -> int:
    suite = build_suite()
    try:
        problem = suite.get(args.problem)
        profile = profile_for(args.model)
    except KeyError as exc:
        out.write(f"{exc}\n")
        return 1
    llm = SyntheticDesignLLM(profile, suite)
    toolchain = Toolchain()
    pipeline = Aivril2Pipeline(
        llm, toolchain, PipelineConfig(language=args.language)
    )
    result = pipeline.run(problem.prompt)
    if args.transcript:
        out.write(result.transcript.render() + "\n\n")
    passed, _ = run_golden_tb(problem, args.language, result.rtl, toolchain)
    out.write(
        f"problem={problem.pid} model={profile.name} "
        f"language={args.language.value}\n"
        f"syntax_ok={result.syntax_ok} functional_ok={result.functional_ok} "
        f"golden_tb={'PASS' if passed else 'FAIL'}\n"
        f"iterations: syntax={result.syntax_iterations} "
        f"functional={result.functional_iterations}\n"
        f"modeled latency: {result.latency.total:.2f}s "
        f"(gen {result.latency.generation_llm:.2f}, "
        f"syntax {result.latency.syntax_loop:.2f}, "
        f"functional {result.latency.functional_loop:.2f})\n"
    )
    return 0 if passed else 2


def _cmd_sweep(args, out) -> int:
    suite = build_suite()
    if args.limit:
        suite = suite.head(args.limit)
    progress = None
    if args.progress:
        def progress(event, metrics):
            if event.kind in (TASK_DONE, TASK_ERROR, TASK_RETRY):
                sys.stderr.write(
                    format_progress_line(event, metrics) + "\n"
                )
    runner = ExperimentRunner(
        suite=suite,
        workers=args.workers,
        task_timeout=args.task_timeout,
        progress=progress,
        trace_path=args.trace,
    )
    if args.artifact == "table2":
        results = runner.run_all(languages=(Language.VERILOG,))
        out.write(render_table2(results) + "\n")
    else:
        results = runner.run_all()
        if args.artifact == "table1":
            out.write(render_table1(results) + "\n")
        else:
            out.write(render_figure3(results) + "\n")
    if args.progress:
        sys.stderr.write("sweep: " + runner.metrics.summary() + "\n")
    if args.trace:
        sys.stderr.write(
            f"trace written to {args.trace} "
            f"(inspect with 'repro trace summarize {args.trace}')\n"
        )
    errors = sum(result.error_count for result in results)
    if errors:
        sys.stderr.write(
            f"WARNING: {errors} problem task(s) produced error records; "
            f"they are excluded from the reported percentages\n"
        )
    return 1 if errors else 0


def _cmd_trace(args, out) -> int:
    from repro.obs import (
        critical_path_of_trace,
        fold_trace,
        read_trace,
        render_agent_breakdown,
        render_critical_path,
        render_flame,
        summarize_agents,
    )

    try:
        if args.trace_command == "summarize":
            out.write(render_trace_summary(summarize_trace(args.path)) + "\n")
            if args.by_agent:
                breakdown = summarize_agents(read_trace(args.path))
                out.write(render_agent_breakdown(breakdown) + "\n")
            return 0
        if args.trace_command == "critical-path":
            steps = critical_path_of_trace(args.path)
            out.write(render_critical_path(steps) + "\n")
            return 0 if steps else 1
        if args.trace_command == "flame":
            text = render_flame(fold_trace(args.path))  # newline-terminated
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
                out.write(f"folded stacks written to {args.output}\n")
            else:
                out.write(text)
            return 0
        count, errors = validate_trace(args.path)
        if errors:
            for error in errors:
                out.write(error + "\n")
            out.write(
                f"INVALID: {len(errors)} problem(s) in {count} record(s)\n"
            )
            return 1
        out.write(f"OK: {count} record(s), all schema-valid\n")
        return 0
    except BrokenPipeError:
        # the downstream consumer (e.g. ``| head``) closed the pipe
        return 0
    except (OSError, ValueError) as exc:
        out.write(f"cannot read trace: {exc}\n")
        return 1


def _cmd_validate(args, out) -> int:
    suite = build_suite()
    problems = suite.problems[: args.limit] if args.limit else suite.problems
    languages = [args.language] if args.language else list(Language)
    toolchain = Toolchain()
    failures = 0
    for problem in problems:
        for language in languages:
            report = validate_problem(problem, language, toolchain)
            if not report.ok:
                failures += 1
                out.write(f"FAIL {problem.pid} [{language.value}]\n")
                for issue in report.issues:
                    out.write("  " + issue.splitlines()[0] + "\n")
    out.write(
        f"validated {len(problems)} problem(s) x {len(languages)} "
        f"language(s): {failures} failure(s)\n"
    )
    return 0 if failures == 0 else 1


def _cmd_qa(args, out) -> int:
    from repro.obs import configure_tracing, get_tracer, set_tracer
    from repro.qa.corpus import (
        DEFAULT_CORPUS_DIR,
        load_case,
        replay_corpus,
        save_case,
    )
    from repro.qa.fuzz import run_fuzz
    from repro.qa.reduce import reduce_case

    if args.qa_command == "fuzz":
        previous = get_tracer()
        if args.trace:
            # a fresh trace file per campaign, so one summary maps to one run
            open(args.trace, "w").close()
            configure_tracing(args.trace)
        try:
            report = run_fuzz(
                args.seed,
                args.count,
                workers=args.workers,
                task_timeout=args.task_timeout,
                formal=args.formal,
            )
        finally:
            set_tracer(previous)
        out.write(report.render() + "\n")
        if args.corpus and report.divergences:
            for case in report.divergences:
                path = save_case(case, args.corpus)
                out.write(f"  saved {path}\n")
        if args.trace:
            sys.stderr.write(
                f"trace written to {args.trace} "
                f"(inspect with 'repro trace summarize {args.trace}')\n"
            )
        return 0 if report.ok else 1

    if args.qa_command == "reduce":
        try:
            case = load_case(args.case)
        except (OSError, ValueError, KeyError) as exc:
            out.write(f"cannot load case: {exc}\n")
            return 1
        try:
            result = reduce_case(case, max_checks=args.max_checks)
        except ValueError as exc:
            out.write(f"{exc}\n")
            return 1
        out.write("qa reduce: " + result.summary + "\n")
        if args.output:
            import json as _json

            with open(args.output, "w") as handle:
                _json.dump(
                    result.reduced.to_json(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
            out.write(f"reduced case written to {args.output}\n")
        return 0

    corpus_dir = args.corpus or DEFAULT_CORPUS_DIR
    outcomes = replay_corpus(corpus_dir)
    if not outcomes:
        out.write(f"no corpus cases found in {corpus_dir}\n")
        return 1
    failures = 0
    for outcome in outcomes:
        out.write(outcome.render() + "\n")
        failures += 0 if outcome.matched else 1
    out.write(
        f"qa replay: {len(outcomes)} case(s), {failures} mismatch(es)\n"
    )
    return 0 if failures == 0 else 1


def _cmd_formal(args, out) -> int:
    from repro.eda.toolchain import Language as _Language
    from repro.formal import (
        FormalVerdict,
        check_program,
        check_reset_contract,
        check_source,
        check_x_freedom,
        extract_netlist,
        ExtractionError,
    )
    from repro.qa.corpus import DEFAULT_CORPUS_DIR, load_case, load_corpus
    from repro.qa.oracle import QaCase, case_sources
    from repro.qa.spec import generate_spec

    depth_kwargs = {} if args.depth is None else {"depth": args.depth}

    if args.formal_command == "prove":
        if args.count:
            from repro.exec.engine import ExecutionEngine
            from repro.exec.task import Task

            engine = ExecutionEngine(workers=args.workers)
            tasks = [
                Task(
                    index=index,
                    key=f"formal/s{args.seed}/p{index}",
                    fn=check_program,
                    args=(args.seed, index, args.depth),
                )
                for index in range(args.count)
            ]
            failures = 0
            counts: dict[str, int] = {}
            for outcome in engine.run(tasks):
                if not outcome.ok:
                    failures += 1
                    out.write(
                        f"  ERROR #{outcome.index}: task {outcome.status}: "
                        f"{outcome.error}\n".rstrip() + "\n"
                    )
                    continue
                payload = outcome.value
                for language in _Language:
                    verdict = payload[language.value]
                    counts[verdict] = counts.get(verdict, 0) + 1
                    if verdict != FormalVerdict.PROVED.value:
                        failures += 1
                        out.write(
                            f"  NOT PROVED #{payload['index']} "
                            f"{payload['name']} [{language.value}]: "
                            f"{verdict}\n"
                        )
            out.write(
                f"formal prove: seed={args.seed} count={args.count} — "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                + f", {failures} failure(s)\n"
            )
            return 0 if failures == 0 else 1

        corpus_dir = args.corpus or DEFAULT_CORPUS_DIR
        cases = load_corpus(corpus_dir)
        if not cases:
            out.write(f"no corpus cases found in {corpus_dir}\n")
            return 1
        failures = 0
        for case in cases:
            sources = case_sources(case)
            for language in _Language:
                result = check_source(
                    case.spec, sources[language], language, **depth_kwargs
                )
                detail = result.method or result.detail
                out.write(
                    f"  {case.case_name} [{language.value}]: "
                    f"{result.verdict.value}"
                    + (f" via {detail}" if detail else "")
                    + (
                        f" ({len(result.witness)}-cycle witness)"
                        if result.witness
                        else ""
                    )
                    + "\n"
                )
                if not result.decisive:
                    failures += 1
        out.write(
            f"formal prove: {len(cases)} case(s), "
            f"{failures} indecisive verdict(s)\n"
        )
        return 0 if failures == 0 else 1

    # formal check: reset + X-freedom contracts
    if args.case:
        try:
            cases = [load_case(args.case)]
        except (OSError, ValueError, KeyError) as exc:
            out.write(f"cannot load case: {exc}\n")
            return 1
    else:
        # mutation-free probes of the renderer's own contract hygiene
        cases = [
            QaCase(spec=generate_spec(args.seed, index))
            for index in range(args.count)
        ]
    failures = 0
    for case in cases:
        sources = case_sources(case)
        for language in _Language:
            try:
                netlist = extract_netlist(
                    case.spec, sources[language], language
                )
            except ExtractionError as exc:
                out.write(
                    f"  {case.case_name} [{language.value}]: "
                    f"unsupported ({exc})\n"
                )
                failures += 1
                continue
            reset = check_reset_contract(case.spec, netlist)
            xfree = check_x_freedom(case.spec, netlist, **depth_kwargs)
            out.write(
                f"  {case.case_name} [{language.value}]: "
                f"reset={reset.verdict.value} "
                f"x-freedom={xfree.verdict.value}\n"
            )
            if (
                reset.verdict is not FormalVerdict.PROVED
                or xfree.verdict is not FormalVerdict.PROVED
            ):
                failures += 1
    out.write(
        f"formal check: {len(cases)} case(s), {failures} violation(s)\n"
    )
    return 0 if failures == 0 else 1


def _cmd_bench(args, out) -> int:
    from repro.obs import DEFAULT_TOLERANCE, check_baselines

    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    hard_tiers = () if args.warn_only else tuple(args.hard or ("sim",))
    try:
        report = check_baselines(
            args.baselines,
            args.fresh,
            tolerance=tolerance,
            hard_tiers=hard_tiers,
        )
    except (OSError, ValueError) as exc:
        out.write(f"bench check: {exc}\n")
        return 1
    out.write(report.render() + "\n")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    handlers = {
        "list": _cmd_list,
        "show": _cmd_show,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "validate": _cmd_validate,
        "qa": _cmd_qa,
        "formal": _cmd_formal,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

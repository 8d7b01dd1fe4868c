"""The repair loop's readers and renderers against the code they replaced.

Each syntax or functional repair iteration turns diagnostics into a log,
the log into a Review Agent's error list, and a simulation log into a
Verification Agent's failure list. Those steps were rewritten to do one
pass each: :meth:`SourceFile.locate` finds a diagnostic's location and
snippet from one line lookup, :func:`render_vivado_log` renders and
counts in one loop, :func:`parse_compile_log` reads an error line with a
prefix test, a head match and a ``[file:line]`` match at the line's end,
and :func:`parse_sim_failures` skips lines without ``"Test Case "``.
The synthetic LLM reads each fenced prompt field (spec, code, log) with
two ``str.find`` calls instead of a lazy regex.

The implementations they replaced are kept below, verbatim, as the
references. Each rewritten function must equal its reference on every
input: on the logs of every suite syntax and functional mutant in both
languages, on adversarial lines, and on generated ones.
"""

from __future__ import annotations

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.review_agent import ParsedError, parse_compile_log
from repro.agents import verification_agent
from repro.agents.verification_agent import parse_sim_failures
from repro.designs.model import TOP_NAME
from repro.designs.mutations import MutationError, apply_mutation
from repro.eda.toolchain import CompileResult, HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.hdl.diagnostics import Diagnostic, Severity, render_vivado_log
from repro.hdl.source import SourceFile, SourceLocation, SourceSpan
from repro.llm import protocol

# -- the references ---------------------------------------------------------

_LOG_LINE_RE = re.compile(
    r"^(ERROR|WARNING):\s*\[(?P<code>[^\]]+)\]\s*(?P<message>.*?)"
    r"(?:\s*\[(?P<file>[^\s\]:]+):(?P<line>\d+)\])?$"
)


def reference_parse_compile_log(log: str) -> list[ParsedError]:
    errors: list[ParsedError] = []
    lines = log.splitlines()
    for index, line in enumerate(lines):
        match = _LOG_LINE_RE.match(line)
        if match is None or not line.startswith("ERROR"):
            continue
        code = match.group("code")
        if code.endswith("1-99"):
            continue  # the summary line, not a defect
        snippet = ""
        if index + 1 < len(lines) and lines[index + 1].startswith("    > "):
            snippet = lines[index + 1][6:].strip()
        errors.append(
            ParsedError(
                code=code,
                message=match.group("message").strip(),
                file=match.group("file") or "",
                line=int(match.group("line") or 0),
                snippet=snippet,
            )
        )
    return errors


def reference_render_vivado_log(diagnostics, *, tool="xvlog", top=""):
    diags = list(diagnostics)
    lines = [f"INFO: [{tool.upper()} 1-1] Starting static elaboration"]
    if top:
        lines.append(f"INFO: [{tool.upper()} 1-2] Analyzing design unit {top}")
    for diag in diags:
        lines.append(diag.render())
        if diag.snippet and diag.is_error:
            for raw in diag.snippet.splitlines():
                lines.append(f"    > {raw}")
    errors = sum(1 for d in diags if d.is_error)
    warnings = sum(1 for d in diags if d.severity is Severity.WARNING)
    if errors:
        lines.append(
            f"ERROR: [{tool.upper()} 1-99] Analysis failed with {errors} error(s), "
            f"{warnings} warning(s)"
        )
    else:
        lines.append(
            f"INFO: [{tool.upper()} 1-0] Analysis succeeded with 0 error(s), "
            f"{warnings} warning(s)"
        )
    return "\n".join(lines)


_FAILURE_RE = re.compile(r"Test Case (?P<case>\d+) Failed: (?P<detail>.*)$")


def reference_parse_sim_failures(log: str) -> list:
    failures = []
    for line in log.splitlines():
        match = _FAILURE_RE.search(line)
        if match is not None:
            failures.append(
                verification_agent.TestFailure(
                    case=int(match.group("case")),
                    detail=match.group("detail").strip(),
                )
            )
    return failures


_FENCED_RE = {
    fence: re.compile(
        re.escape(fence) + r"\n(.*?)\n" + re.escape(fence), re.DOTALL
    )
    for fence in (protocol.SPEC_FENCE, protocol.CODE_FENCE, protocol.LOG_FENCE)
}


def reference_parse_spec(prompt: str) -> str | None:
    match = _FENCED_RE[protocol.SPEC_FENCE].search(prompt)
    return match.group(1).strip() if match else None


def reference_parse_code(prompt: str) -> str | None:
    match = _FENCED_RE[protocol.CODE_FENCE].search(prompt)
    return match.group(1) if match else None


def reference_parse_log(prompt: str) -> str | None:
    match = _FENCED_RE[protocol.LOG_FENCE].search(prompt)
    return match.group(1) if match else None


def reference_detect_task(prompt: str) -> str | None:
    for task in (
        protocol.TASK_TESTBENCH,
        protocol.TASK_RTL,
        protocol.TASK_FIX_SYNTAX,
        protocol.TASK_FIX_FUNCTIONAL,
        protocol.TASK_ANALYZE_COMPILE,
        protocol.TASK_ANALYZE_SIM,
        protocol.TASK_CLARIFY,
    ):
        if prompt.lstrip().startswith(task):
            return task
    return None


# -- the suite's compile logs -----------------------------------------------


@pytest.fixture(scope="module")
def mutant_compiles() -> list[tuple[Language, str, CompileResult]]:
    """``(language, top, result)`` of every suite syntax and functional
    mutant, compiled with its golden testbench under ``tb`` (as the syntax
    loop compiles it) and alone under ``top_module`` (as the pass@1 syntax
    check does)."""
    results = []
    for language in Language:
        toolchain = Toolchain()
        ext = language.file_extension
        for problem in build_suite().problems:
            tb = HdlFile(f"tb{ext}", problem.golden_tb[language], language)
            mutations = (problem.syntax_mutations[language]
                         + problem.functional_mutations[language])
            for mutation in mutations:
                try:
                    text = apply_mutation(problem.reference[language], mutation)
                except MutationError:
                    continue
                dut = HdlFile(f"{TOP_NAME}{ext}", text, language)
                for files, top in (([dut, tb], "tb"), ([dut], TOP_NAME)):
                    results.append(
                        (language, top, toolchain.compile(files, top))
                    )
    return results


class TestSuiteLogs:
    def test_the_suite_logs_report_errors(self, mutant_compiles):
        failed = [r for _, _, r in mutant_compiles if not r.ok]
        assert len(mutant_compiles) > 1_000
        assert len(failed) > 600
        assert sum(r.error_count for r in failed) > 1_000

    def test_compile_log_reader_equals_reference(self, mutant_compiles):
        for _, _, result in mutant_compiles:
            assert (parse_compile_log(result.log)
                    == reference_parse_compile_log(result.log)), result.log

    def test_log_is_the_reference_render(self, mutant_compiles):
        for language, top, result in mutant_compiles:
            assert result.log == reference_render_vivado_log(
                result.diagnostics, tool=language.compiler, top=top
            )

    def test_render_equals_reference(self, mutant_compiles):
        for _, _, result in mutant_compiles:
            for tool, top in (("xvlog", "tb"), ("xvhdl", ""), ("x", "top")):
                assert render_vivado_log(
                    result.diagnostics, tool=tool, top=top
                ) == reference_render_vivado_log(
                    result.diagnostics, tool=tool, top=top
                )

    def test_error_count_counts_error_diagnostics(self, mutant_compiles):
        for _, _, result in mutant_compiles:
            assert result.error_count == sum(
                1 for d in result.diagnostics if d.is_error
            )


# -- adversarial and generated lines ----------------------------------------

ADVERSARIAL_LOGS = [
    "ERROR: [VRFC 10-91] x is not declared [top_module.v:12]",
    "ERROR: [VRFC 10-91] msg [a[b:12]",
    "ERROR: [C] msg [a[b:12] ",
    "ERROR: [C] msg [a[b:12]  \t",
    "ERROR: [C] x [[a:1]",
    "ERROR: [C] x [a[:1]",
    "ERROR: [C] x [:1]",
    "ERROR: [C] x [a:]",
    "ERROR: [C] x [a:1x]",
    "ERROR: [C] x [a b:1]",
    "ERROR: [C] x [a]b:1]",
    "ERROR: [C] x [a:b:1]",
    "ERROR: [C] expected ']' near '[' [f.v:3]",
    "ERROR: [C] index [3] out of range [f.v:7] [g.v:8]",
    "ERROR: [C][f:1]",
    "ERROR: [C]",
    "ERROR: [C]   ",
    "ERROR: []",
    "ERROR: [] msg [f.v:1]",
    "ERROR: [C msg [f.v:1]",
    "ERROR: C] msg",
    "ERROR:[C]msg[f.v:2]",
    "ERROR:   \t[C]   msg   [f.v:2]",
    "ERROR: [a [b] msg [f.v:9]",
    "ERROR: [C] msg [f.v:\u0661\u0662]",
    "ERROR: [C] msg\u00a0[f.v:3]",
    "ERROR: [C] msg\u3000[f\u00a0v:3]",
    "ERROR: [XVLOG 1-99] Analysis failed with 2 error(s), 0 warning(s)",
    "ERROR: [VRFC 1-99] not the summary but ends like it",
    "ERROR: [C 1-99x] kept [f.v:1]",
    "ERRORS: [C] msg [f.v:1]",
    "ERROR [C] msg [f.v:1]",
    "error: [C] msg [f.v:1]",
    " ERROR: [C] msg [f.v:1]",
    "WARNING: [C] msg [f.v:1]",
    "INFO: [C] msg [f.v:1]",
    "ERROR: [C] no location here",
    "ERROR: [C] located\n    > offending();\nERROR: [D] next [x.v:2]\n    > ",
    "ERROR: [C] a [f.v:1]\n    >   snippet with spaces   \n    > second",
    "ERROR: [C] a [f.v:1]\r\n    > crlf\r\nERROR: [D] b [f.v:2]\x0b    > vt",
    "ERROR: [C] a [f.v:1]\x85    > nel\u2028ERROR: [E] c",
    "ERROR: [XSIM 43-3225] Simulation not run: compilation failed",
    "",
    "\n\n",
]


class TestCompileLogReader:
    @pytest.mark.parametrize("log", ADVERSARIAL_LOGS)
    def test_adversarial_log_equals_reference(self, log):
        assert parse_compile_log(log) == reference_parse_compile_log(log)

    def test_bracket_inside_the_file_name(self):
        (error,) = parse_compile_log("ERROR: [C] msg [a[b:12]")
        assert (error.message, error.file, error.line) == ("msg", "a[b", 12)

    def test_trailing_space_drops_the_location(self):
        (error,) = parse_compile_log("ERROR: [C] msg [a.v:12] ")
        assert (error.message, error.file, error.line) == (
            "msg [a.v:12]", "", 0
        )

    @settings(max_examples=3_000, deadline=None)
    @given(st.lists(st.sampled_from([
        "ERROR:", "WARNING:", "ERRORS:", "INFO:", "[", "]", ":", "1", "42",
        "\u0661", " ", "\t", "\u00a0", "\u3000", "\x1c", "a", "f.v", "x y",
        "\n", "\r", "\x85", "    > ", "1-99", "VRFC 10-91",
    ]), max_size=24))
    def test_generated_log_equals_reference(self, pieces):
        log = "".join(pieces)
        for text in (log, "ERROR: [C]" + log, "ERROR: " + log):
            assert (parse_compile_log(text)
                    == reference_parse_compile_log(text)), text


class TestSimLogReader:
    @settings(max_examples=1_000, deadline=None)
    @given(st.lists(st.sampled_from([
        "Test Case ", "Test case ", "Failed: ", "Failed:", "7", "12", " ",
        "\u0663", "x", "\n", "\r", "All tests passed successfully!",
        "ERROR: ",
    ]), max_size=16))
    def test_generated_log_equals_reference(self, pieces):
        log = "".join(pieces)
        assert parse_sim_failures(log) == reference_parse_sim_failures(log)

    def test_failure_lines(self):
        log = ("run all\nTest Case 3 Failed: y=1 expected 0 \n"
               "note: Test Case 12 Failed: q=X\nTest Case x Failed: no")
        assert parse_sim_failures(log) == reference_parse_sim_failures(log)
        assert [f.case for f in parse_sim_failures(log)] == [3, 12]


class TestFencedFields:
    @settings(max_examples=3_000, deadline=None)
    @given(st.lists(st.sampled_from([
        protocol.SPEC_FENCE, protocol.CODE_FENCE, protocol.LOG_FENCE,
        "-----", "LOG", "-", "\n", "\n\n", "\r", " ", "x", "ERROR: [C] m",
    ]), max_size=14))
    def test_generated_prompt_equals_reference(self, pieces):
        prompt = "".join(pieces)
        assert protocol.parse_spec(prompt) == reference_parse_spec(prompt)
        assert protocol.parse_code(prompt) == reference_parse_code(prompt)
        assert protocol.parse_log(prompt) == reference_parse_log(prompt)

    def test_agent_prompts(self):
        log = "ERROR: x\n" + protocol.SPEC_FENCE
        prompt = (f"{protocol.TASK_FIX_SYNTAX}\nTarget language: VHDL\n"
                  f"{protocol.spec_block('  an adder  ')}\n"
                  f"{protocol.code_block('')}\n{protocol.log_block(log)}")
        for parse, reference in (
            (protocol.parse_spec, reference_parse_spec),
            (protocol.parse_code, reference_parse_code),
            (protocol.parse_log, reference_parse_log),
        ):
            assert parse(prompt) == reference(prompt)
        assert protocol.parse_spec(prompt) == "an adder"
        assert protocol.parse_code(prompt) == ""


class TestDetectTask:
    @pytest.mark.parametrize("prompt", [
        protocol.TASK_RTL + "\nTarget language: VHDL",
        "  \n\t" + protocol.TASK_FIX_SYNTAX,
        protocol.TASK_ANALYZE_SIM,
        "TASK: something else",
        "",
        " " + protocol.TASK_CLARIFY[:-1],
    ])
    def test_equals_reference(self, prompt):
        assert protocol.detect_task(prompt) == reference_detect_task(prompt)


# -- locating a diagnostic ---------------------------------------------------


def _reference_locate(source: SourceFile, span: SourceSpan):
    return source.location(span.start_offset), source.snippet(span)


@st.composite
def text_and_span(draw):
    text = draw(st.text(alphabet="ab \t\r\n\u2028", max_size=40))
    start = draw(st.integers(0, len(text) + 2))
    end = draw(st.integers(start, len(text) + 3))
    return text, SourceSpan(start, end)


class TestLocate:
    @settings(max_examples=2_000, deadline=None)
    @given(text_and_span())
    def test_equals_location_and_snippet(self, case):
        text, span = case
        source = SourceFile("f.v", text)
        assert source.locate(span) == _reference_locate(source, span)

    def test_every_span_of_a_text(self):
        text = "ab\n\ncd\r\nef\n"
        source = SourceFile("f.v", text)
        for start in range(len(text) + 2):
            for end in range(start, len(text) + 3):
                span = SourceSpan(start, end)
                assert source.locate(span) == _reference_locate(source, span)

    def test_empty_text(self):
        source = SourceFile("f.v", "")
        assert source.locate(SourceSpan(0, 0)) == (SourceLocation(1, 1), "")

    def test_span_ending_on_a_newline(self):
        source = SourceFile("f.v", "one\ntwo\nthree")
        assert source.locate(SourceSpan(4, 8)) == (SourceLocation(2, 1), "two")

    def test_negative_offset_is_rejected(self):
        source = SourceFile("f.v", "x")
        with pytest.raises(ValueError):
            source.locate(tuple.__new__(SourceSpan, (-1, 0)))


# -- the render and the results ---------------------------------------------


class TestRender:
    def test_every_severity_with_snippets(self):
        location = SourceLocation(3, 1)
        diagnostics = [
            Diagnostic(severity, "C 1-2", f"m{severity}", "f.v", location,
                       "a;\n  b;" if severity % 2 else "")
            for severity in Severity
        ] + [Diagnostic(Severity.WARNING, "W", "no location")]
        for items in (diagnostics, diagnostics[:3], [], diagnostics[::-1]):
            for top in ("", "tb"):
                assert render_vivado_log(
                    iter(items), tool="xvhdl", top=top
                ) == reference_render_vivado_log(items, tool="xvhdl", top=top)

    def test_labels(self):
        assert [s.label for s in Severity] == [s.name for s in Severity]


class TestCompileResultValue:
    def test_error_count_is_derived_and_left_out_of_equality(self):
        error = Diagnostic(Severity.ERROR, "C", "m")
        warning = Diagnostic(Severity.WARNING, "W", "m")
        result = CompileResult(False, "log", (error, warning, error), 0.4)
        assert result.error_count == 2
        same = CompileResult(False, "log", (error, warning, error), 0.4)
        assert result == same and hash(result) == hash(same)
        assert "error_count" not in repr(result)

    def test_pickles_and_stays_frozen(self):
        result = CompileResult(
            False, "log", (Diagnostic(Severity.FATAL, "C", "m"),), 0.4
        )
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result and copy.error_count == 1
        with pytest.raises(AttributeError):
            result.error_count = 0

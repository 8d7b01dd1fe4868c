"""Tests for the EDA toolchain facade."""

from dataclasses import replace

import pytest

import repro.eda.toolchain as toolchain_module
from repro.designs import tbgen
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.qa.fuzz import run_fuzz
from tests.simpaths import plain_text, simulate, simulate_kernel
from tests.test_toolchain_cache import mutated_corpus

GOOD_V = "module top_module(input a, output y); assign y = a; endmodule"
BAD_V = "module top_module(input a, output y); assign y = a endmodule"
GOOD_VHD = """
library ieee;
use ieee.std_logic_1164.all;
entity top_module is
    port (a : in std_logic; y : out std_logic);
end entity;
architecture rtl of top_module is
begin
    y <= a;
end architecture;
"""


@pytest.fixture
def toolchain():
    return Toolchain()


class TestCompile:
    def test_clean_verilog(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.v", GOOD_V, Language.VERILOG)], "top_module"
        )
        assert result.ok
        assert "Analysis succeeded" in result.log
        assert result.error_count == 0
        assert result.tool_seconds > 0

    def test_clean_vhdl(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.vhd", GOOD_VHD, Language.VHDL)], "top_module"
        )
        assert result.ok
        assert "XVHDL" in result.log

    def test_syntax_error_in_log_with_location(self, toolchain):
        result = toolchain.compile(
            [HdlFile("dut.v", BAD_V, Language.VERILOG)], "top_module"
        )
        assert not result.ok
        assert "ERROR: [VRFC" in result.log
        assert "[dut.v:1]" in result.log
        assert "Analysis failed" in result.log

    def test_semantic_error_detected(self, toolchain):
        source = "module top_module(input a, output y); assign y = ghost; endmodule"
        result = toolchain.compile(
            [HdlFile("t.v", source, Language.VERILOG)], "top_module"
        )
        assert not result.ok
        assert "'ghost'" in result.log

    def test_missing_top_module(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.v", GOOD_V, Language.VERILOG)], "nonexistent"
        )
        assert not result.ok
        assert "not found" in result.log

    def test_empty_file_set(self, toolchain):
        result = toolchain.compile([], "top")
        assert not result.ok

    def test_mixed_language_rejected(self, toolchain):
        result = toolchain.compile(
            [
                HdlFile("a.v", GOOD_V, Language.VERILOG),
                HdlFile("b.vhd", GOOD_VHD, Language.VHDL),
            ],
            "top_module",
        )
        assert not result.ok
        assert "mixed-language" in result.log

    def test_multi_file_verilog_resolves_across_files(self, toolchain):
        sub = "module sub(input a, output y); assign y = ~a; endmodule"
        top = (
            "module top_module(input a, output y);"
            " sub s0(.a(a), .y(y)); endmodule"
        )
        result = toolchain.compile(
            [
                HdlFile("sub.v", sub, Language.VERILOG),
                HdlFile("top.v", top, Language.VERILOG),
            ],
            "top_module",
        )
        assert result.ok, result.log

    def test_vhdl_case_insensitive_top(self, toolchain):
        result = toolchain.compile(
            [HdlFile("t.vhd", GOOD_VHD, Language.VHDL)], "TOP_MODULE"
        )
        assert result.ok

    @pytest.mark.parametrize("hdl_file", [
        HdlFile("t.v", GOOD_V, Language.VERILOG),
        HdlFile("t.vhd", GOOD_VHD, Language.VHDL),
    ])
    def test_parse_memo_hits_build_no_source_file(
        self, toolchain, monkeypatch, hdl_file
    ):
        companion = HdlFile(
            "c" + hdl_file.language.file_extension,
            hdl_file.text.replace("top_module", "companion"),
            hdl_file.language,
        )
        assert toolchain.simulate([hdl_file], "top_module").ok
        assert toolchain.compile([companion], "companion").ok
        built = []
        elaborated = []

        class CountingSourceFile(toolchain_module.SourceFile):
            def __post_init__(self):
                built.append(self.name)
                super().__post_init__()

        for name in ("elaborate_verilog", "elaborate_vhdl"):
            real = getattr(toolchain_module, name)
            monkeypatch.setattr(
                toolchain_module, name,
                lambda *args, real=real, **kwargs: elaborated.append(args[1])
                or real(*args, **kwargs),
            )
        monkeypatch.setattr(toolchain_module, "SourceFile", CountingSourceFile)
        # the same file in a file set new to the store re-elaborates its
        # top, once for the compile and once for the kernel's own build,
        # and an unknown top (the first file's source is the fallback)
        # fails the compile; all of them reuse the SourceFile kept in the
        # parse entry
        assert toolchain.simulate([hdl_file, companion], "top_module").ok
        assert not toolchain.compile([hdl_file], "nonexistent").ok
        assert elaborated == ["top_module", "top_module", "nonexistent"]
        assert built == []


class TestSimulate:
    TB = """
    module tb;
        reg a; wire y;
        top_module dut(.a(a), .y(y));
        initial begin
            a = 1; #1;
            if (y === 1'b1) $display("All tests passed successfully!");
            $finish;
        end
    endmodule
    """

    def test_simulation_produces_xsim_log(self, toolchain):
        result = toolchain.simulate(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert result.ok
        assert "INFO: [XSIM 4-301]" in result.log
        assert "Simulation completed" in result.log
        assert result.finished_cleanly
        assert result.output_lines == ("All tests passed successfully!",)

    def test_compile_failure_skips_simulation(self, toolchain):
        result = toolchain.simulate(
            [
                HdlFile("t.v", BAD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert not result.ok
        assert "Simulation not run" in result.log
        assert result.compile_result is not None
        assert not result.compile_result.ok

    def test_sim_tool_seconds_exceed_compile(self, toolchain):
        compile_result = toolchain.compile(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        sim_result = toolchain.simulate(
            [
                HdlFile("t.v", GOOD_V, Language.VERILOG),
                HdlFile("tb.v", self.TB, Language.VERILOG),
            ],
            "tb",
        )
        assert sim_result.tool_seconds > compile_result.tool_seconds

    def test_max_sim_time_bounds_runaway_clock(self):
        toolchain = Toolchain(max_sim_time=100)
        source = """
        module tb;
            reg clk;
            initial begin
                clk = 0;
                forever #5 clk = ~clk;
            end
        endmodule
        """
        result = toolchain.simulate(
            [HdlFile("t.v", source, Language.VERILOG)], "tb"
        )
        assert result.ok
        assert result.end_time <= 100
        assert not result.finished_cleanly  # no $finish was reached

    def test_fresh_state_between_simulations(self, toolchain):
        # two runs of the same stateful design must produce identical output
        source = """
        module tb;
            reg [3:0] n;
            initial begin
                n = 0;
                n = n + 1;
                $display("%0d", n);
                $finish;
            end
        endmodule
        """
        files = [HdlFile("t.v", source, Language.VERILOG)]
        first = toolchain.simulate(files, "tb")
        second = toolchain.simulate(files, "tb")
        assert first.output_lines == second.output_lines == ("1",)


# -- a generated testbench compiles from its declarations --------------------


def _stimulus_body_bounds(testbench):
    """Where the stimulus body of a generated testbench starts and ends, as
    line indices, found by the lines that open and close it."""
    lines = testbench.split("\n")
    if testbench.bundle.language is Language.VERILOG:
        opening, report = "        errors = 0;", "        if (errors == 0)"
    else:
        opening, report = "    begin", "        if errors = 0 then"
    return lines.index(opening) + 1, lines.index(report)


@pytest.fixture(scope="module")
def fuzz_sets():
    """The ``(files, top)`` of every simulate in a 16-program campaign:
    each program's DUT with its generated testbench, in both languages."""
    sets = []
    real = Toolchain.simulate

    def recording(self, files, top):
        sets.append((list(files), top))
        return real(self, files, top)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Toolchain, "simulate", recording)
        report = run_fuzz(seed=0, count=16)
    assert len(report.results) == 16 and len(sets) == 32
    return sets


@pytest.fixture
def parsed(monkeypatch):
    """Every text the toolchain hands a parser from now on."""
    texts = []
    for name in ("parse_verilog", "parse_vhdl"):
        real = getattr(toolchain_module, name)
        monkeypatch.setattr(
            toolchain_module, name,
            lambda text, *args, real=real, **kwargs: texts.append(text)
            or real(text, *args, **kwargs),
        )
    return texts


def _compile_fields(result):
    return (result.ok, result.log, result.diagnostics, result.tool_seconds)


#: gray2bin4's reference with bit 2 of ``b`` also written by the part that
#: writes bit 3, to the same value: the batch plan refuses its overlapping
#: drivers as ``multi-driven``, and the kernel runs it
_OVERLAPPING_GRAY2BIN4 = {
    Language.VERILOG: (
        "assign b[3] = g[3];", "assign b[3:2] = {g[3], g[3] ^ g[2]};"
    ),
    Language.VHDL: (
        "b(3) <= g(3);", "b(3 downto 2) <= g(3) & (g(3) xor g(2));"
    ),
}


def _testbench_set(pid, language, *, broken=False, overlapping=False):
    """A suite problem's reference with its golden testbench. ``broken``
    misspells ``errors`` in the testbench's first check, an error that
    its declarations, copied from the golden testbench, lack.
    ``overlapping`` swaps gray2bin4's reference for its overlapping-driver
    copy."""
    problem = build_suite().get(pid)
    ext = language.file_extension
    reference = problem.reference[language]
    if overlapping:
        reference = reference.replace(*_OVERLAPPING_GRAY2BIN4[language], 1)
        assert reference != problem.reference[language]
    testbench = problem.golden_tb[language]
    if broken:
        increment = (
            "errors = errors + 1;" if language is Language.VERILOG
            else "errors := errors + 1;"
        )
        text = testbench.replace(increment, "e" + increment[2:], 1)
        assert text != testbench
        testbench = tbgen.Testbench(
            text, testbench.bundle, testbench.declarations
        )
    return [
        HdlFile(f"top_module{ext}", reference, language),
        HdlFile(f"tb{ext}", testbench, language),
    ]


class TestTestbenchDeclarations:
    """The compile stage builds a generated testbench from its
    declarations; the kernel builds the plain text and checks that it
    reports what the compile reported."""

    def test_declarations_empty_the_stimulus_body(self, fuzz_sets):
        testbenches = [
            testbench for problem in build_suite()
            for testbench in problem.golden_tb.values()
        ] + [files[-1].text for files, _ in fuzz_sets]
        assert len(testbenches) == 312 + 32
        for testbench in testbenches:
            lines = testbench.split("\n")
            start, end = _stimulus_body_bounds(testbench)
            declared = testbench.declarations.split("\n")
            assert len(declared) == len(lines)
            assert declared[:start] == lines[:start]
            assert declared[end:] == lines[end:]
            assert declared[start:end] == [""] * (end - start)
            assert all(line.strip() for line in lines[start:end])
            assert any("Failed" in line for line in lines[start:end])

    @pytest.mark.parametrize("pid", ["gates_and", "dff_en"])
    @pytest.mark.parametrize("language", list(Language))
    def test_batch_path_never_parses_the_body(self, parsed, language, pid):
        files = _testbench_set(pid, language)
        testbench = files[-1].text
        assert Toolchain().compile(files, "tb").ok
        batched, batch_calls = simulate(files)
        assert batch_calls == 1 and batched.ok
        assert str(testbench) not in parsed
        assert testbench.declarations in parsed
        parsed.clear()
        kernel = simulate_kernel(files)
        assert parsed.count(str(testbench)) == 1
        assert kernel.log == batched.log
        assert kernel.compile_result.log == batched.compile_result.log

    @pytest.mark.parametrize("language", list(Language))
    @pytest.mark.parametrize("kernel_by", ["refused plan", "max_sim_time"])
    def test_a_body_error_its_declarations_lack_is_loud(
        self, language, kernel_by
    ):
        refused = kernel_by == "refused plan"
        pid = "gray2bin4" if refused else "dff_en"
        files = _testbench_set(pid, language, broken=True, overlapping=refused)
        toolchain = Toolchain()
        if kernel_by == "max_sim_time":
            toolchain.max_sim_time = 1
        # the compile reads the declarations alone, so it passes
        assert toolchain.compile(files, "tb").ok
        with pytest.raises(RuntimeError, match="tbgen defect") as raised:
            toolchain.simulate(files, "tb")
        assert "'erors'" in str(raised.value)
        # the intact testbench takes the same path and passes
        intact = _testbench_set(pid, language, overlapping=refused)
        result = Toolchain(max_sim_time=toolchain.max_sim_time).simulate(
            intact, "tb"
        )
        assert result.ok and not result.runtime_error
        if refused:
            # a correct design, which the plan refuses
            assert result.output_lines == (tbgen.PASS_MESSAGE,)
            assert simulate(intact)[1] == 0

    def test_candidates_share_one_parse_of_the_declarations(self, parsed):
        """What candidate revisions have in common with each other is the
        testbench: one toolchain parses its declarations once."""
        toolchain = Toolchain()
        testbenches = []
        for files, top in mutated_corpus(Language.VERILOG):
            toolchain.compile(files, top)
            testbenches.append(files[-1].text)
        assert len(testbenches) > len(set(testbenches))
        for testbench in set(testbenches):
            assert parsed.count(testbench.declarations) == 1
            assert str(testbench) not in parsed

    def test_fuzz_programs_compile_alike_from_declarations(self, fuzz_sets):
        for files, top in fuzz_sets:
            assert isinstance(files[-1].text, tbgen.Testbench)
            declared = Toolchain().compile(files, top)
            full = Toolchain().compile(plain_text(files), top)
            assert declared.ok
            assert _compile_fields(declared) == _compile_fields(full)

    @pytest.mark.parametrize("language", list(Language))
    def test_defect_mutants_compile_alike_from_declarations(self, language):
        """Syntax and functional mutants of the first suite problems, with
        their golden testbench and with its plain copy."""
        failing = 0
        for files, top in mutated_corpus(language):
            declared = Toolchain().compile(files, top)
            full = Toolchain().compile(plain_text(files), top)
            assert _compile_fields(declared) == _compile_fields(full)
            failing += not declared.ok
        assert failing > 0

    PORTLESS = {
        Language.VERILOG: "module top_module;\nendmodule\n",
        Language.VHDL: (
            "entity top_module is\nend entity;\n"
            "architecture rtl of top_module is\nbegin\nend architecture;\n"
        ),
    }

    @pytest.mark.parametrize("language", list(Language))
    def test_a_dut_interface_error_keeps_its_testbench_line(self, language):
        """A DUT without the spec's ports fails the testbench's instance,
        which is in the head: the error keeps its line and column."""
        files = _testbench_set("dff_en", language)
        files[0] = replace(files[0], text=self.PORTLESS[language])
        declared = Toolchain().compile(files, "tb")
        full = Toolchain().compile(plain_text(files), "tb")
        assert not declared.ok
        assert _compile_fields(declared) == _compile_fields(full)
        instance = 1 + next(
            index for index, line in enumerate(files[-1].text.split("\n"))
            if line.lstrip().startswith(("top_module dut(", "dut: entity"))
        )
        lines = {
            d.location.line for d in declared.diagnostics
            if d.file_name == files[-1].name
        }
        assert lines == {instance}


# -- an elaboration error names the unit that holds it ------------------------


def _bad_range_sets(language):
    """``dff_en``'s reference with twelve declarations and one reversed
    range added, alone and with its golden testbench as a ``Testbench`` and
    as plain text: ``(sets, DUT line of the reversed range)``."""
    dut, testbench = _testbench_set("dff_en", language)
    lines = dut.text.split("\n")
    if language is Language.VERILOG:
        at = lines.index(");") + 1
        added = [f"    reg [7:0] r{n};" for n in range(12)]
        added.append("    reg [0:3] pad;")
    else:
        at = lines.index("begin", lines.index("architecture rtl of top_module is"))
        added = [f"    signal r{n} : std_logic_vector(7 downto 0);"
                 for n in range(12)]
        added.append("    signal pad : std_logic_vector(0 downto 3);")
    lines[at:at] = added
    dut = replace(dut, text="\n".join(lines))
    sets = {
        "alone": ([dut], "top_module"),
        "Testbench": ([dut, testbench], "tb"),
        "plain": (plain_text([dut, testbench]), "tb"),
    }
    return sets, at + len(added)


class TestElaborationErrorsNameTheirUnit:
    """The elaborators locate each node through the source of the unit
    that holds it, so an error inside the DUT names the DUT's file and line
    whatever testbench text shares its set."""

    @pytest.mark.parametrize("language", list(Language))
    def test_a_dut_error_names_the_dut_line_in_every_set(self, language):
        sets, line = _bad_range_sets(language)
        for files, top in sets.values():
            result = Toolchain().compile(files, top)
            assert not result.ok
            assert [(d.file_name, d.location.line)
                    for d in result.diagnostics] == [(files[0].name, line)]
            assert f"[{files[0].name}:{line}]" in result.log

    @pytest.mark.parametrize("language", list(Language))
    def test_testbench_set_and_plain_copy_compile_alike(self, language):
        sets, _ = _bad_range_sets(language)
        declared = Toolchain().compile(*sets["Testbench"])
        full = Toolchain().compile(*sets["plain"])
        assert _compile_fields(declared) == _compile_fields(full)

    @pytest.mark.parametrize("first", ["Testbench", "plain"])
    @pytest.mark.parametrize("language", list(Language))
    def test_a_shared_hit_equals_the_cold_compile(self, language, first):
        sets, _ = _bad_range_sets(language)
        second = "plain" if first == "Testbench" else "Testbench"
        shared = Toolchain()
        shared.compile(*sets[first])
        hit = shared.compile(*sets[second])
        assert shared.store.stats["compile"].hits == 1
        cold = Toolchain().compile(*sets[second])
        assert _compile_fields(hit) == _compile_fields(cold)

    @pytest.mark.parametrize("language", list(Language))
    def test_dut_processes_are_named_by_dut_lines(self, language):
        from repro.hdl.diagnostics import DiagnosticCollector

        files = _testbench_set("dff_en", language)
        design = Toolchain()._build_design(files, "tb", DiagnosticCollector())
        opener = ("always @(posedge clk)" if language is Language.VERILOG
                  else "process(clk)")
        line = 1 + next(
            index for index, text in enumerate(files[0].text.split("\n"))
            if text.strip().startswith(opener)
        )
        kind = "always" if language is Language.VERILOG else "proc"
        assert f"dut.{kind}@{line}" in [p.name for p in design.processes]

    SPLIT_ENTITY = (
        "library ieee;\nuse ieee.std_logic_1164.all;\n"
        "entity top_module is\n"
        "    port (a : in std_logic_vector(3 downto 0); y : out std_logic);\n"
        "end entity;\n"
    )
    SPLIT_ARCHITECTURE = (
        "library ieee;\nuse ieee.std_logic_1164.all;\n\n"
        "architecture rtl of top_module is\n"
        "    signal pad : std_logic_vector(3 downto 0);\n"
        "begin\n    y <= '1';\nend architecture;\n"
    )

    @pytest.mark.parametrize("broken, line", [("entity", 4), ("architecture", 5)])
    def test_a_vhdl_entity_and_its_architecture_name_their_own_files(
        self, broken, line
    ):
        texts = {"entity": self.SPLIT_ENTITY,
                 "architecture": self.SPLIT_ARCHITECTURE}
        texts[broken] = texts[broken].replace("(3 downto 0)", "(0 downto 3)")
        files = [HdlFile(f"{unit}.vhd", text, Language.VHDL)
                 for unit, text in texts.items()]
        result = Toolchain().compile(files, "top_module")
        assert [(d.file_name, d.location.line) for d in result.diagnostics] == [
            (f"{broken}.vhd", line)
        ]

"""Golden-testbench generation for both languages.

Given a :class:`~repro.designs.model.DesignSpec`, a reference model, and the
stimulus from :mod:`repro.designs.vectors`, :func:`make_testbench` emits a
self-checking testbench whose failure messages follow the paper's format
("Test Case N Failed: <signal> should be <value>") and whose success message
is the exact string the Verification Agent looks for ("All tests passed
successfully!"). The same stimulus and expectations are rendered into both
languages, so a functional defect is detected identically in each flow.
The result is a :class:`Testbench`: the text, carrying the
:class:`StimulusBundle` it renders, so the batch tier can run the stimulus
without parsing the text, and its declarations, which are what the
toolchain compiles. Each renderer returns the text in three parts: the
head (library clauses, signal declarations, the DUT instance and the
stimulus process's opening), the stimulus body (the drive, wait and check
statements) and the tail (the final report and the closing lines). The
module keeps no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.model import (
    CombModel,
    DesignSpec,
    SeqModel,
    TOP_NAME,
)
from repro.designs.vectors import comb_vectors, seq_stimulus
from repro.eda.toolchain import Language

PASS_MESSAGE = "All tests passed successfully!"
TB_NAME = "tb"


@dataclass(frozen=True)
class StimulusBundle:
    """The structured stimulus behind one generated testbench.

    The (stimulus, expectations) pair :func:`make_testbench` rendered, so
    the batch simulation tier (:mod:`repro.sim.batch`) can evaluate the
    vectors directly instead of re-parsing and event-simulating the
    testbench. Whether the run is clocked is ``spec.clocked``.
    """

    spec: DesignSpec
    language: Language
    stimulus: tuple[dict[str, int], ...]
    expected: tuple[dict[str, int], ...]
    reset_outputs: dict[str, int] | None


class Testbench(str):
    """A generated testbench's text that carries the stimulus it renders.

    :func:`make_testbench` sets ``bundle`` and ``declarations`` once, when
    it builds the text. ``declarations`` is the same text with every line
    of the stimulus body emptied, so every line and column of the head and
    tail holds; the toolchain compiles a :class:`Testbench` from it, and
    sends a set with one :class:`Testbench` file to the batch tier. A
    testbench pickles and copies with both. String operations (``str(tb)``,
    ``tb.strip()``, slicing, concatenation) return plain text, which has
    neither: text that only *equals* a generated testbench compiles in full
    and runs on the event kernel, with the same observables.
    """

    __slots__ = ("bundle", "declarations")

    def __new__(cls, text: str, bundle: StimulusBundle,
                declarations: str) -> "Testbench":
        self = super().__new__(cls, text)
        self.bundle = bundle
        self.declarations = declarations
        return self

    def __reduce__(self):
        return Testbench, (str(self), self.bundle, self.declarations)


#: settle time between driving combinational inputs and checking outputs (ns)
SETTLE_NS = 5
#: half clock period for sequential testbenches (ns)
HALF_PERIOD_NS = 5
#: reset cycles applied before stimulus
RESET_CYCLES = 2


def verilog_literal(value: int, width: int) -> str:
    return f"{width}'d{value & ((1 << width) - 1)}"


def vhdl_literal(value: int, width: int) -> str:
    value &= (1 << width) - 1
    if width == 1:
        return f"'{value}'"
    return '"' + format(value, f"0{width}b") + '"'


def make_testbench(
    spec: DesignSpec,
    model: CombModel | SeqModel,
    language: Language,
    pid: str,
    *,
    extra_vectors: list[dict[str, int]] | None = None,
    random_cycles: int = 24,
    reset_outputs: dict[str, int] | None = None,
    max_cases: int | None = None,
    vectors: list[dict[str, int]] | None = None,
) -> Testbench:
    """Emit the golden testbench for one problem in one language.

    ``max_cases`` truncates the stimulus — used by the weak-self-testbench
    ablation (the VeriAssist failure mode the paper discusses), never by the
    golden suite. ``vectors`` *replaces* the default stimulus entirely — the
    formal layer uses it to replay a counterexample witness as the only test
    cases, so the simulator re-judges exactly the proof's inputs; when given,
    ``extra_vectors`` is ignored (witness replay must not be diluted by the
    problem's directed cycles).
    """
    if spec.clocked and not isinstance(model, SeqModel):
        raise TypeError(f"{pid}: clocked design requires a SeqModel")
    if not spec.clocked and not isinstance(model, CombModel):
        raise TypeError(f"{pid}: combinational design requires a CombModel")
    if vectors is not None:
        stimulus = list(vectors)
    elif spec.clocked:
        stimulus = list(extra_vectors or ()) + seq_stimulus(
            spec, pid, random_cycles=random_cycles
        )
    else:
        stimulus = comb_vectors(spec, pid) + list(extra_vectors or ())
    if max_cases is not None:
        stimulus = stimulus[:max_cases]
    verilog = language is Language.VERILOG
    if spec.clocked:
        expected = model.run(spec, stimulus)
        render = _verilog_seq_tb if verilog else _vhdl_seq_tb
        head, body, tail = render(spec, stimulus, expected, reset_outputs)
    else:
        expected = [model.evaluate(spec, v) for v in stimulus]
        reset_outputs = None  # a combinational testbench checks no reset
        render = _verilog_comb_tb if verilog else _vhdl_comb_tb
        head, body, tail = render(spec, stimulus, expected)
    return Testbench(
        "\n".join(head + body + tail) + "\n",
        StimulusBundle(
            spec=spec,
            language=language,
            stimulus=tuple(dict(v) for v in stimulus),
            expected=tuple(dict(e) for e in expected),
            reset_outputs=(
                dict(reset_outputs) if reset_outputs is not None else None
            ),
        ),
        "\n".join(head + [""] * len(body) + tail) + "\n",
    )


# --------------------------------------------------------------------------
# Verilog
# --------------------------------------------------------------------------


def _v_decl(port, kind: str) -> str:
    if port.width == 1:
        return f"    {kind} {port.name};"
    return f"    {kind} [{port.width - 1}:0] {port.name};"


def _v_connections(spec: DesignSpec) -> str:
    names = []
    if spec.clocked:
        names.append("clk")
        if spec.has_reset:
            names.append("rst")
    names.extend(p.name for p in spec.ports)
    return ", ".join(f".{n}({n})" for n in names)


def _v_header(spec: DesignSpec) -> list[str]:
    lines = ["module tb;"]
    if spec.clocked:
        lines.append("    reg clk;")
        if spec.has_reset:
            lines.append("    reg rst;")
    for port in spec.inputs:
        lines.append(_v_decl(port, "reg"))
    for port in spec.outputs:
        lines.append(_v_decl(port, "wire"))
    lines.append("    integer errors;")
    lines.append("")
    lines.append(f"    {TOP_NAME} dut({_v_connections(spec)});")
    lines.append("")
    lines.append("    initial begin")
    lines.append("        errors = 0;")
    return lines


def _v_checks(spec: DesignSpec, case_no: int, expected: dict[str, int],
              suffix: str = "") -> list[str]:
    lines = []
    for port in spec.outputs:
        want = expected[port.name]
        literal = verilog_literal(want, port.width)
        message = (
            f"Test Case {case_no} Failed: {port.name} should be {want}{suffix}"
        )
        lines.append(f"        if ({port.name} !== {literal}) begin")
        lines.append(
            f'            $display("{message}, got %0d", {port.name});'
        )
        lines.append("            errors = errors + 1;")
        lines.append("        end")
    return lines


def _v_footer() -> list[str]:
    return [
        "        if (errors == 0)",
        f'            $display("{PASS_MESSAGE}");',
        "        else",
        '            $display("%0d test case(s) failed.", errors);',
        "        $finish;",
        "    end",
        "endmodule",
    ]


def _verilog_comb_tb(spec, vectors, expectations):
    body = []
    for case_no, (vector, expected) in enumerate(
        zip(vectors, expectations), start=1
    ):
        drives = " ".join(
            f"{p.name} = {verilog_literal(vector[p.name], p.width)};"
            for p in spec.inputs
        )
        if drives:
            body.append(f"        {drives}")
        body.append(f"        #{SETTLE_NS};")
        body.extend(_v_checks(spec, case_no, expected))
    return _v_header(spec), body, _v_footer()


def _verilog_seq_tb(spec, stimulus, expected, reset_outputs=None):
    body = ["        clk = 0;"]
    if spec.has_reset:
        body.append("        rst = 1;")
    zero_drive = " ".join(
        f"{p.name} = {verilog_literal(0, p.width)};" for p in spec.inputs
    )
    if zero_drive:
        body.append(f"        {zero_drive}")
    for _ in range(RESET_CYCLES):
        body.append(
            f"        #{HALF_PERIOD_NS} clk = 1; #{HALF_PERIOD_NS} clk = 0;"
        )
    if spec.has_reset:
        body.append("        rst = 0;")
    if reset_outputs is not None:
        body.extend(
            _v_checks(spec, 0, reset_outputs, suffix=" right after reset")
        )
    for case_no, (vector, want) in enumerate(zip(stimulus, expected), start=1):
        drives = " ".join(
            f"{p.name} = {verilog_literal(vector[p.name], p.width)};"
            for p in spec.inputs
        )
        if drives:
            body.append(f"        {drives}")
        body.append(
            f"        #{HALF_PERIOD_NS} clk = 1; #{HALF_PERIOD_NS} clk = 0;"
        )
        body.extend(
            _v_checks(spec, case_no, want, suffix=f" at cycle {case_no}")
        )
    return _v_header(spec), body, _v_footer()


# --------------------------------------------------------------------------
# VHDL
# --------------------------------------------------------------------------


def _vhdl_type(width: int) -> str:
    if width == 1:
        return "std_logic"
    return f"std_logic_vector({width - 1} downto 0)"


def _vhdl_header(spec: DesignSpec) -> list[str]:
    lines = [
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "use ieee.numeric_std.all;",
        "",
        "entity tb is",
        "end entity;",
        "",
        "architecture test of tb is",
    ]
    if spec.clocked:
        lines.append("    signal clk : std_logic := '0';")
        if spec.has_reset:
            lines.append("    signal rst : std_logic := '0';")
    for port in spec.ports:
        lines.append(f"    signal {port.name} : {_vhdl_type(port.width)};")
    lines.append("begin")
    names = []
    if spec.clocked:
        names.append("clk")
        if spec.has_reset:
            names.append("rst")
    names.extend(p.name for p in spec.ports)
    connections = ", ".join(f"{n} => {n}" for n in names)
    lines.append(f"    dut: entity work.{TOP_NAME} port map ({connections});")
    lines.append("")
    lines.append("    stim: process")
    lines.append("        variable errors : integer := 0;")
    lines.append("    begin")
    return lines


def _vhdl_checks(spec: DesignSpec, case_no: int, expected: dict[str, int],
                 suffix: str = "") -> list[str]:
    lines = []
    for port in spec.outputs:
        want = expected[port.name]
        literal = vhdl_literal(want, port.width)
        message = (
            f"Test Case {case_no} Failed: {port.name} should be {want}{suffix}"
        )
        lines.append(f"        if {port.name} /= {literal} then")
        lines.append(f'            report "{message}" severity error;')
        lines.append("            errors := errors + 1;")
        lines.append("        end if;")
    return lines


def _vhdl_footer() -> list[str]:
    return [
        "        if errors = 0 then",
        f'            report "{PASS_MESSAGE}";',
        "        else",
        '            report "Some test cases failed." severity error;',
        "        end if;",
        "        wait;",
        "    end process;",
        "end architecture;",
    ]


def _vhdl_comb_tb(spec, vectors, expectations):
    body = []
    for case_no, (vector, expected) in enumerate(
        zip(vectors, expectations), start=1
    ):
        for port in spec.inputs:
            literal = vhdl_literal(vector[port.name], port.width)
            body.append(f"        {port.name} <= {literal};")
        body.append(f"        wait for {SETTLE_NS} ns;")
        body.extend(_vhdl_checks(spec, case_no, expected))
    return _vhdl_header(spec), body, _vhdl_footer()


def _vhdl_seq_tb(spec, stimulus, expected, reset_outputs=None):
    body = ["        clk <= '0';"]
    if spec.has_reset:
        body.append("        rst <= '1';")
    for port in spec.inputs:
        body.append(f"        {port.name} <= {vhdl_literal(0, port.width)};")
    for _ in range(RESET_CYCLES):
        body.append(
            f"        wait for {HALF_PERIOD_NS} ns; clk <= '1'; "
            f"wait for {HALF_PERIOD_NS} ns; clk <= '0';"
        )
    if spec.has_reset:
        body.append("        rst <= '0';")
    if reset_outputs is not None:
        body.extend(
            _vhdl_checks(spec, 0, reset_outputs, suffix=" right after reset")
        )
    for case_no, (vector, want) in enumerate(zip(stimulus, expected), start=1):
        for port in spec.inputs:
            literal = vhdl_literal(vector[port.name], port.width)
            body.append(f"        {port.name} <= {literal};")
        body.append(
            f"        wait for {HALF_PERIOD_NS} ns; clk <= '1'; "
            f"wait for {HALF_PERIOD_NS} ns; clk <= '0';"
        )
        body.extend(
            _vhdl_checks(spec, case_no, want, suffix=f" at cycle {case_no}")
        )
    return _vhdl_header(spec), body, _vhdl_footer()

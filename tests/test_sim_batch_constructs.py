"""The dynamic-select and VHDL library constructs on both simulation paths.

``tests/test_sim_construct_reference.py`` pins the kernel's answers for
these constructs inside hand-written testbenches. Here each construct is a
``top_module`` judged by a generated golden testbench, so the batch tier
plans it whenever it can. The batch tier runs the kernel's own process
bodies, stepping its combinational ones only on settled values, so it
plans a process only if no closure of its body can abort on some operand
values: dynamic bit and indexed selects, shifts, rotates, ``std_match``
and a register's store to a part of itself plan, while a dynamic
part-select, slice or replication count keep their DUT on the kernel.
Each case pins which
path runs, the golden testbench passing against a Python model, and
identical observables on that path and on the kernel, reached by passing
the testbench as plain text.
The combinational cases that batch also evaluate X-carrying vectors
through :func:`simulate_vectors`, bit-exact with a
kernel session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.designs.model import CombModel, DesignSpec, PortSpec, SeqModel
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.diagnostics import DiagnosticCollector
from repro.sim import batch
from repro.sim.kernel import Simulator
from repro.sim.values import Logic
from tests.simpaths import observables, simulate, simulate_kernel

_VHDL_HEADER = (
    "library ieee;\n"
    "use ieee.std_logic_1164.all;\n"
    "use ieee.numeric_std.all;\n"
)


@dataclass(frozen=True)
class Construct:
    language: Language
    #: data ports ``(name, width, direction)``; clocked designs add clk/rst
    ports: tuple[tuple[str, int, str], ...]
    dut: str
    #: comb: inputs → outputs; clocked: ``(state, inputs) → (state, outputs)``
    model: Callable
    #: the stimulus, ``{input: value}`` per vector or cycle
    vectors: tuple[dict[str, int], ...]
    batches: bool
    clocked: bool = False

    def spec(self, name: str) -> DesignSpec:
        return DesignSpec(
            name=name,
            ports=tuple(PortSpec(*port) for port in self.ports),
            clocked=self.clocked,
        )


def _vectors(seed: int, count: int = 24, **ranges) -> tuple[dict, ...]:
    """*count* vectors with each input drawn from ``range(*bounds)``."""
    rng = random.Random(seed)
    return tuple(
        {name: rng.randrange(*bounds) for name, bounds in ranges.items()}
        for _ in range(count)
    )


def _v_comb(ports: str, body: str) -> str:
    return f"module top_module({ports});\n    {body}\nendmodule\n"


def _vh_comb(ports: str, body: str) -> str:
    return (
        _VHDL_HEADER
        + f"entity top_module is\n    port ({ports});\nend entity;\n"
        + f"architecture rtl of top_module is\nbegin\n    {body}\n"
        + "end architecture;\n"
    )


_A8_N3 = (("a", 8, "in"), ("n", 3, "in"), ("y", 8, "out"))
_V_A8_N3 = "input [7:0] a, input [2:0] n, output [7:0] y"
_VH_A8_N3 = (
    "a : in std_logic_vector(7 downto 0);\n"
    "          n : in std_logic_vector(2 downto 0);\n"
    "          y : out std_logic_vector(7 downto 0)"
)


def _vh_shift(fn: str) -> str:
    return _vh_comb(
        _VH_A8_N3,
        f"y <= std_logic_vector({fn}(unsigned(a), "
        "to_integer(unsigned(n))));",
    )


def _rotl(a: int, n: int) -> int:
    return ((a << n) | (a >> (8 - n))) & 0xFF


_V_BIT_STORE = """module top_module(input clk, input rst, input [2:0] i,
                  output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q[i] <= 1'b1;
    end
endmodule
"""

_VH_INDEX_STORE = _VHDL_HEADER + """entity top_module is
    port (clk : in std_logic;
          rst : in std_logic;
          i : in std_logic_vector(2 downto 0);
          q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top_module is
    signal r : std_logic_vector(7 downto 0) := (others => '0');
begin
    process (clk) begin
        if rising_edge(clk) then
            if rst = '1' then
                r <= (others => '0');
            else
                r(to_integer(unsigned(i))) <= '1';
            end if;
        end if;
    end process;
    q <= r;
end architecture;
"""

_V_SHIFT_REGISTER = """module top_module(input clk, input rst, input [2:0] n,
                  output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'd1;
        else q <= (q << n) ^ {5'd0, n};
    end
endmodule
"""

_VH_SHIFT_REGISTER = _VHDL_HEADER + """entity top_module is
    port (clk : in std_logic;
          rst : in std_logic;
          n : in std_logic_vector(2 downto 0);
          q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top_module is
    signal r : unsigned(7 downto 0) := (others => '0');
begin
    process (clk) begin
        if rising_edge(clk) then
            if rst = '1' then
                r <= to_unsigned(1, 8);
            else
                r <= shift_left(r, to_integer(unsigned(n)))
                     xor resize(unsigned(n), 8);
            end if;
        end if;
    end process;
    q <= std_logic_vector(r);
end architecture;
"""


def _set_bit(state, v):
    state |= 1 << v["i"]
    return state, {"q": state}


def _shift_xor(state, v):
    state = ((state << v["n"]) ^ v["n"]) & 0xFF
    return state, {"q": state}


#: case name → the construct as a DUT, its model, stimulus and pinned path
CONSTRUCTS: dict[str, Construct] = {
    "v_bit_select": Construct(
        Language.VERILOG,
        (("a", 8, "in"), ("s", 3, "in"), ("y", 1, "out")),
        _v_comb("input [7:0] a, input [2:0] s, output y", "assign y = a[s];"),
        lambda v: {"y": v["a"] >> v["s"]},
        _vectors(1, a=(256,), s=(8,)),
        batches=True,
    ),
    "v_part_select": Construct(
        Language.VERILOG,
        (("a", 8, "in"), ("hi", 3, "in"), ("lo", 3, "in"), ("y", 8, "out")),
        _v_comb("input [7:0] a, input [2:0] hi, input [2:0] lo, "
                "output [7:0] y", "assign y = a[hi:lo];"),
        lambda v: {"y": (v["a"] >> v["lo"])
                   & ((1 << (v["hi"] - v["lo"] + 1)) - 1)},
        tuple(dict(v, hi=max(v["hi"], v["lo"]))
              for v in _vectors(2, a=(256,), hi=(8,), lo=(8,))),
        batches=False,
    ),
    "v_indexed_select": Construct(
        Language.VERILOG,
        (("a", 8, "in"), ("s", 3, "in"), ("y", 2, "out")),
        _v_comb("input [7:0] a, input [2:0] s, output [1:0] y",
                "assign y = a[s +: 2];"),
        lambda v: {"y": v["a"] >> v["s"]},
        _vectors(3, a=(256,), s=(7,)),
        batches=True,
    ),
    "v_indexed_select_desc": Construct(
        Language.VERILOG,
        (("a", 8, "in"), ("s", 3, "in"), ("y", 2, "out")),
        _v_comb("input [7:0] a, input [2:0] s, output [1:0] y",
                "assign y = a[s -: 2];"),
        lambda v: {"y": v["a"] >> (v["s"] - 1)},
        _vectors(16, a=(256,), s=(1, 8)),
        batches=True,
    ),
    "v_replicate": Construct(
        Language.VERILOG,
        (("n", 3, "in"), ("y", 8, "out")),
        _v_comb("input [2:0] n, output [7:0] y", "assign y = {n{1'b1}};"),
        lambda v: {"y": (1 << v["n"]) - 1},
        tuple({"n": n} for n in range(1, 8)),
        batches=False,
    ),
    "v_shift_left": Construct(
        Language.VERILOG, _A8_N3, _v_comb(_V_A8_N3, "assign y = a << n;"),
        lambda v: {"y": v["a"] << v["n"]},
        _vectors(4, a=(256,), n=(8,)),
        batches=True,
    ),
    "v_shift_right": Construct(
        Language.VERILOG, _A8_N3, _v_comb(_V_A8_N3, "assign y = a >> n;"),
        lambda v: {"y": v["a"] >> v["n"]},
        _vectors(5, a=(256,), n=(8,)),
        batches=True,
    ),
    "vh_shift_left": Construct(
        Language.VHDL, _A8_N3, _vh_shift("shift_left"),
        lambda v: {"y": v["a"] << v["n"]},
        _vectors(6, a=(256,), n=(8,)),
        batches=True,
    ),
    "vh_shift_right": Construct(
        Language.VHDL, _A8_N3, _vh_shift("shift_right"),
        lambda v: {"y": v["a"] >> v["n"]},
        _vectors(7, a=(256,), n=(8,)),
        batches=True,
    ),
    "vh_rotate_left": Construct(
        Language.VHDL, _A8_N3, _vh_shift("rotate_left"),
        lambda v: {"y": _rotl(v["a"], v["n"])},
        _vectors(8, a=(256,), n=(8,)),
        batches=True,
    ),
    "vh_rotate_right": Construct(
        Language.VHDL, _A8_N3, _vh_shift("rotate_right"),
        lambda v: {"y": _rotl(v["a"], (8 - v["n"]) % 8)},
        _vectors(9, a=(256,), n=(8,)),
        batches=True,
    ),
    "vh_std_match": Construct(
        Language.VHDL,
        (("a", 8, "in"), ("b", 8, "in"), ("m", 1, "out")),
        _vh_comb(
            "a : in std_logic_vector(7 downto 0);\n"
            "          b : in std_logic_vector(7 downto 0);\n"
            "          m : out std_logic",
            "m <= '1' when std_match(a, b) else '0';",
        ),
        lambda v: {"m": int(v["a"] == v["b"])},
        tuple(dict(v, b=v["a"]) if k % 3 == 0 else v
              for k, v in enumerate(_vectors(10, a=(256,), b=(256,)))),
        batches=True,
    ),
    "vh_slice_read": Construct(
        Language.VHDL,
        (("a", 16, "in"), ("lo", 3, "in"), ("y", 4, "out")),
        _vh_comb(
            "a : in std_logic_vector(15 downto 0);\n"
            "          lo : in std_logic_vector(2 downto 0);\n"
            "          y : out std_logic_vector(3 downto 0)",
            "y <= a(to_integer(unsigned(lo)) + 3 "
            "downto to_integer(unsigned(lo)));",
        ),
        lambda v: {"y": v["a"] >> v["lo"]},
        _vectors(11, a=(1 << 16,), lo=(8,)),
        batches=False,
    ),
    "v_bit_store": Construct(
        Language.VERILOG, (("i", 3, "in"), ("q", 8, "out")), _V_BIT_STORE,
        SeqModel(reset=lambda: 0, step=_set_bit),
        _vectors(12, count=12, i=(8,)),
        batches=True, clocked=True,
    ),
    "vh_index_store": Construct(
        Language.VHDL, (("i", 3, "in"), ("q", 8, "out")), _VH_INDEX_STORE,
        SeqModel(reset=lambda: 0, step=_set_bit),
        _vectors(13, count=12, i=(8,)),
        batches=True, clocked=True,
    ),
    "v_shift_register": Construct(
        Language.VERILOG, (("n", 3, "in"), ("q", 8, "out")),
        _V_SHIFT_REGISTER,
        SeqModel(reset=lambda: 1, step=_shift_xor),
        _vectors(14, count=12, n=(8,)),
        batches=True, clocked=True,
    ),
    "vh_shift_register": Construct(
        Language.VHDL, (("n", 3, "in"), ("q", 8, "out")),
        _VH_SHIFT_REGISTER,
        SeqModel(reset=lambda: 1, step=_shift_xor),
        _vectors(15, count=12, n=(8,)),
        batches=True, clocked=True,
    ),
}


def _files(name: str) -> list[HdlFile]:
    case = CONSTRUCTS[name]
    model = case.model if case.clocked else CombModel(case.model)
    testbench = make_testbench(
        case.spec(name), model, case.language, f"construct-{name}",
        vectors=list(case.vectors),
    )
    ext = case.language.file_extension
    return [
        HdlFile(f"top_module{ext}", case.dut, case.language),
        HdlFile(f"tb{ext}", testbench, case.language),
    ]


@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_construct_passes_identically_on_both_paths(name):
    """The golden testbench passes on the pinned path and on the kernel."""
    files = _files(name)
    default, batch_calls = simulate(files)
    kernel = simulate_kernel(files)
    assert batch_calls == int(CONSTRUCTS[name].batches)
    assert default.ok, default.log
    assert any("All tests passed" in line for line in default.output_lines), (
        default.log
    )
    assert observables(default) == observables(kernel)


_X_CASES = sorted(
    name for name, case in CONSTRUCTS.items()
    if case.batches and not case.clocked
)


def _design(name: str):
    case = CONSTRUCTS[name]
    files = [HdlFile(f"t{case.language.file_extension}", case.dut,
                     case.language)]
    collector = DiagnosticCollector()
    design = Toolchain()._build_design(files, "top_module", collector)
    assert design is not None, [str(d) for d in collector.diagnostics]
    return design


def simulate_vectors(design, vectors, *, inputs=None, outputs=None):
    """Batch-evaluate a combinational design over a stimulus set.

    *vectors* is a sequence of ``{input: int | Logic}`` dicts. *inputs* /
    *outputs* are ``(name, width)`` pairs; when omitted, inputs are derived
    from the first vector's keys (at design widths) and outputs are every
    signal a process writes that is not an input. Returns one
    ``{output: Logic}`` row per vector, or ``None`` when the design is not
    batchable.
    """
    if inputs is None:
        if not vectors:
            return None
        inputs = [(name, design.signals[name].width) for name in sorted(vectors[0])]
    if outputs is None:
        input_names = {name for name, _w in inputs}
        outputs = sorted({
            (signal.name, signal.width)
            for process in design.processes
            for signal in process.facts().writes
            if signal.name not in input_names
        })
    plan = batch.plan_combinational(design, inputs, outputs)
    return None if plan is None else batch._run_vectors(plan, vectors)


def kernel_rows(design, vectors, inputs, outputs):
    """The outputs a kernel session over *design* settles to after each
    vector: every process starts at time 0, then each vector's inputs are
    written and the time step runs to quiescence."""
    sim = Simulator(design)
    sim.run()
    rows = []
    for vector in vectors:
        for port, width in inputs:
            value = vector[port]
            if not isinstance(value, Logic):
                value = Logic.from_int(value, width)
            sim.write_signal(design.signals[port], value)
        sim._run_time_step()
        rows.append({
            port: design.signals[port].value.resize(width)
            for port, width in outputs
        })
    return rows


@pytest.mark.parametrize("name", _X_CASES)
def test_x_vectors_are_bit_exact_with_the_kernel(name):
    """Vectors carrying X evaluate in four-state logic; every row matches
    the kernel's."""
    case = CONSTRUCTS[name]
    inputs = [(n, w) for n, w, d in case.ports if d == "in"]
    outputs = [(n, w) for n, w, d in case.ports if d == "out"]
    first, width = inputs[0]
    vectors = list(case.vectors[:6])
    vectors[1] = dict(vectors[1], **{first: Logic.from_string(
        "x" + "0" * (width - 1))})
    vectors[4] = dict(vectors[4], **{first: Logic.from_string(
        "1" * (width - 2) + "xz")})
    rows = simulate_vectors(
        _design(name), vectors, inputs=inputs, outputs=outputs
    )
    assert rows is not None
    assert rows == kernel_rows(_design(name), vectors, inputs, outputs)

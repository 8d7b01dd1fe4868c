"""Frozen reference answers for the dynamic-select and VHDL library constructs.

Each program below exercises one construct whose semantics depend on a value
only known while simulating: dynamic bit/part/indexed-part selects, dynamic
stores, dynamic replication counts, and the VHDL ``shift_*``/``rotate_*``/
``std_match`` functions plus dynamic index and slice stores, slice reads and
aggregates sized by a dynamic slice. Every construct has a second case
driving an X index, bound, count or operand.

The expected observables (``ok``, printed lines, rendered log and runtime
error) are literals recorded from the original tree-walking interpreter, so
these cases are the reference for the constructs now that the closure
compiler is the only evaluator. Five cases record fixed behaviour instead:
``v_replicate_x`` (an X replication count used to abort without a
message, ``ok=True``, and now aborts loudly), ``v_indexed_select_desc``
(a ``-:`` select reaching below bit 0 used to raise ``ValueError`` out of
the simulator, and now reads X there, as bits past the top always did),
and the three ``v_reversed_*`` cases (a reversed range such as ``a[0:3]``
used to raise ``ValueError``; a read now yields X and a store writes
nothing, as X bounds do).

The module also pins the lazy-body contract. Process bodies compile when
the process first starts, inside ``Simulator.run``, so ``compile()`` builds
none and a process that never starts is never built. A body the compiler
fails to build fails the run with a named, counted error, never a silent
fallback.
"""

from __future__ import annotations

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.diagnostics import DiagnosticCollector
from repro.obs import NullSink, Tracer, get_tracer, set_tracer
from repro.sim.compile import verilog as compile_verilog
from repro.sim.compile import vhdl as compile_vhdl
from tests.simpaths import plain_text, simulate

_VHDL_HEADER = (
    "library ieee;\n"
    "use ieee.std_logic_1164.all;\n"
    "use ieee.numeric_std.all;\n"
)

# -- Verilog --------------------------------------------------------------

_V_BIT_STORE = """
module tb;
    reg [7:0] q;
    reg [2:0] i;
    reg clk;
    always @(posedge clk) q[i] <= 1'b1;
    initial begin
        q = 8'b0; i = {index1}; clk = 0;
        #1 clk = 1;
        #1 $display("q=%b", q);
        i = {index2}; clk = 0;
        #1 clk = 1;
        #1 $display("q=%b", q);
        $finish;
    end
endmodule
"""

_V_PART_SELECT = """
module tb;
    reg [7:0] a;
    reg [2:0] hi, lo;
    wire [7:0] y;
    assign y = a[hi:lo];
    initial begin
        a = 8'b1011_0110; hi = 3'd5; lo = 3'd2;
        #1 $display("y=%b", y);
        hi = 3'd7; lo = {lo2};
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

_V_INDEXED_SELECT = """
module tb;
    reg [7:0] a;
    reg [2:0] s;
    wire [1:0] y;
    assign y = a[s +: 2];
    initial begin
        a = 8'b1011_0110; s = 3'd1;
        #1 $display("y=%b", y);
        s = {s2};
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

#: a descending indexed select reaching below bit 0 reads X there
_V_INDEXED_SELECT_DESC = """
module tb;
    reg [7:0] a;
    reg [2:0] s;
    wire [2:0] y;
    assign y = a[s -: 3];
    initial begin
        a = 8'b1011_0110; s = 3'd5;
        #1 $display("y=%b", y);
        s = 3'd1;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

_V_REPLICATE = """
module tb;
    reg [2:0] n{init};
    wire [7:0] y;
    assign y = {{n{{1'b1}}}};
    initial begin
        #1 $display("y=%b", y);
        n = 3'd5;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

# -- VHDL -----------------------------------------------------------------

_VH_SHIFT = _VHDL_HEADER + """
entity tb is end entity;
architecture sim of tb is
    signal a : unsigned(7 downto 0) := "10110110";
    signal n : integer{init};
    signal y : unsigned(7 downto 0);
begin
    y <= {fn}(a, n);
    stim: process begin
        wait for 1 ns;
        report "y=" & y;
        n <= 5;
        wait for 1 ns;
        report "y=" & y;
        wait;
    end process;
end architecture;
"""

_VH_STD_MATCH = _VHDL_HEADER + """
entity tb is end entity;
architecture sim of tb is
    signal a : std_logic_vector(7 downto 0) := "10110110";
    signal b : std_logic_vector(7 downto 0) := {b};
    signal m : std_logic;
begin
    m <= std_match(a, b);
    stim: process begin
        wait for 1 ns;
        report "m=" & m;
        a <= "00000110";
        wait for 1 ns;
        report "m=" & m;
        wait;
    end process;
end architecture;
"""

_VH_INDEX_STORE = _VHDL_HEADER + """
entity tb is end entity;
architecture sim of tb is
    signal q : std_logic_vector(7 downto 0) := (others => '0');
    signal i : integer{init};
    signal clk : std_logic := '0';
begin
    reg: process(clk) begin
        if rising_edge(clk) then
            q(i) <= '1';
        end if;
    end process;
    stim: process begin
        clk <= '1';
        wait for 1 ns;
        report "q=" & q;
        i <= 2;
        clk <= '0';
        wait for 1 ns;
        clk <= '1';
        wait for 1 ns;
        report "q=" & q;
        wait;
    end process;
end architecture;
"""

_VH_SLICE_READ = _VHDL_HEADER + """
entity tb is end entity;
architecture sim of tb is
    signal a : std_logic_vector(15 downto 0) := x"B6C3";
    signal lo : integer{init};
    signal y : std_logic_vector(3 downto 0);
begin
    y <= a(lo + 3 downto lo);
    stim: process begin
        wait for 1 ns;
        report "y=" & y;
        lo <= 8;
        wait for 1 ns;
        report "y=" & y;
        wait;
    end process;
end architecture;
"""

_V_PART_STORE = """
module tb;
    reg [7:0] q;
    reg [3:0] a, b;
    reg [2:0] hi, lo;
    initial begin
        q = 8'b0; a = 4'd9; b = 4'd8; hi = 3'd6; lo = 3'd2;
        q[hi:lo] = a + b;
        $display("q=%b", q);
        lo = {lo2};
        q[hi:lo] = 5'b11111;
        $display("q=%b", q);
        $finish;
    end
endmodule
"""

_VH_SLICE_STORE = _VHDL_HEADER + """
entity tb is end entity;
architecture sim of tb is
    signal q : std_logic_vector(7 downto 0) := (others => '0');
    signal lo : integer{init};
begin
    stim: process
        variable v : std_logic_vector(7 downto 0) := (others => '0');
    begin
        q(lo + 3 downto lo) <= (others => '1');
        wait for 1 ns;
        report "q=" & q;
        if q(lo + 3 downto lo) = (others => '1') then
            report "all ones";
        else
            report "not all ones";
        end if;
        case q(lo + 1 downto lo) is
            when (others => '1') => report "low pair set";
            when others => report "low pair clear";
        end case;
        v(lo + 1 downto lo) := "11";
        report "v=" & v;
        wait;
    end process;
end architecture;
"""

#: a reversed static part-select reads X, as a reversed dynamic one does
_V_REVERSED_READ = """
module tb;
    reg [7:0] a;
    wire [3:0] y;
    assign y = a[0:3];
    initial begin
        a = 8'b1011_0110;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

#: a reversed static part-select store writes nothing, as X bounds do
_V_REVERSED_STORE = """
module tb;
    reg [7:0] y;
    reg [3:0] a;
    always @(*) begin
        y = 8'b1010_0101;
        y[0:3] = a;
    end
    initial begin
        a = 4'b1011;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""

#: so does a dynamic store while its bounds are reversed
_V_REVERSED_DYNAMIC_STORE = """
module tb;
    reg [7:0] y;
    reg [3:0] a;
    reg [2:0] m, l;
    initial begin
        y = 8'b1010_0101; a = 4'b1011; m = 3'd0; l = 3'd3;
        y[m:l] = a;
        $display("y=%b", y);
        m = 3'd6;
        y[m:l] = a;
        $display("y=%b", y);
        $finish;
    end
endmodule
"""

_SHIFTS = ("shift_left", "shift_right", "rotate_left", "rotate_right")

#: case name → (language, full testbench source with top ``tb``)
CASES: dict[str, tuple[Language, str]] = {
    "v_bit_store": (
        Language.VERILOG, _V_BIT_STORE.format(index1="3'd5", index2="3'd2")
    ),
    "v_bit_store_x": (
        Language.VERILOG, _V_BIT_STORE.format(index1="3'd5", index2="3'bx1x")
    ),
    "v_part_select": (Language.VERILOG, _V_PART_SELECT.format(lo2="3'd4")),
    "v_part_select_x": (
        Language.VERILOG, _V_PART_SELECT.format(lo2="3'bxx0")
    ),
    "v_indexed_select": (
        Language.VERILOG, _V_INDEXED_SELECT.format(s2="3'd5")
    ),
    "v_indexed_select_x": (
        Language.VERILOG, _V_INDEXED_SELECT.format(s2="3'bx")
    ),
    "v_indexed_select_desc": (Language.VERILOG, _V_INDEXED_SELECT_DESC),
    "v_replicate": (Language.VERILOG, _V_REPLICATE.format(init=" = 3'd3")),
    "v_replicate_x": (Language.VERILOG, _V_REPLICATE.format(init="")),
    **{
        f"vh_{fn}": (Language.VHDL, _VH_SHIFT.format(fn=fn, init=" := 3"))
        for fn in _SHIFTS
    },
    **{
        f"vh_{fn}_x": (Language.VHDL, _VH_SHIFT.format(fn=fn, init=""))
        for fn in _SHIFTS
    },
    "vh_std_match": (
        Language.VHDL, _VH_STD_MATCH.format(b='"10110110"')
    ),
    "vh_std_match_x": (
        Language.VHDL, _VH_STD_MATCH.format(b='"1-11X110"')
    ),
    "vh_index_store": (Language.VHDL, _VH_INDEX_STORE.format(init=" := 5")),
    "vh_index_store_x": (Language.VHDL, _VH_INDEX_STORE.format(init="")),
    "vh_slice_read": (Language.VHDL, _VH_SLICE_READ.format(init=" := 4")),
    "vh_slice_read_x": (Language.VHDL, _VH_SLICE_READ.format(init="")),
    "v_part_store": (Language.VERILOG, _V_PART_STORE.format(lo2="3'd4")),
    "v_part_store_x": (Language.VERILOG, _V_PART_STORE.format(lo2="3'bx")),
    "vh_slice_store": (Language.VHDL, _VH_SLICE_STORE.format(init=" := 2")),
    "vh_slice_store_x": (Language.VHDL, _VH_SLICE_STORE.format(init="")),
    "v_reversed_read": (Language.VERILOG, _V_REVERSED_READ),
    "v_reversed_store": (Language.VERILOG, _V_REVERSED_STORE),
    "v_reversed_dynamic_store": (Language.VERILOG, _V_REVERSED_DYNAMIC_STORE),
}

#: case name → (ok, printed lines, rendered log, runtime error)
EXPECTED: dict[str, tuple[bool, tuple[str, ...], str, str]] = {
    "v_bit_store": (
        True,
        ("q=00100000", "q=00100100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00100000\n"
        "q=00100100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 4 ns",
        "",
    ),
    "v_bit_store_x": (
        True,
        ("q=00100000", "q=00100000"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00100000\n"
        "q=00100000\n"
        "INFO: [XSIM 4-302] Simulation completed at time 4 ns",
        "",
    ),
    "v_part_select": (
        True,
        ("y=00001101", "y=00001011"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=00001101\n"
        "y=00001011\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_part_select_x": (
        True,
        ("y=00001101", "y=0000000x"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=00001101\n"
        "y=0000000x\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_indexed_select": (
        True,
        ("y=11", "y=01"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=11\n"
        "y=01\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_indexed_select_x": (
        True,
        ("y=11", "y=0x"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=11\n"
        "y=0x\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_indexed_select_desc": (
        True,
        ("y=110", "y=10x"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=110\n"
        "y=10x\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_replicate": (
        True,
        ("y=00000111", "y=00011111"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=00000111\n"
        "y=00011111\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_replicate_x": (
        False,
        (),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "ERROR: [XSIM 43-3861] replication count has unknown bits",
        "replication count has unknown bits",
    ),
    "vh_shift_left": (
        True,
        ("y=10110000", "y=11000000"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=10110000\n"
        "y=11000000\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_shift_right": (
        True,
        ("y=00010110", "y=00000101"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=00010110\n"
        "y=00000101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_rotate_left": (
        True,
        ("y=10110101", "y=11010110"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=10110101\n"
        "y=11010110\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_rotate_right": (
        True,
        ("y=11010110", "y=10110101"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=11010110\n"
        "y=10110101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_shift_left_x": (
        True,
        ("y=xxxxxxxx", "y=11000000"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=xxxxxxxx\n"
        "y=11000000\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_shift_right_x": (
        True,
        ("y=xxxxxxxx", "y=00000101"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=xxxxxxxx\n"
        "y=00000101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_rotate_left_x": (
        True,
        ("y=xxxxxxxx", "y=11010110"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=xxxxxxxx\n"
        "y=11010110\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_rotate_right_x": (
        True,
        ("y=xxxxxxxx", "y=10110101"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=xxxxxxxx\n"
        "y=10110101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_std_match": (
        True,
        ("m=1", "m=0"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "m=1\n"
        "m=0\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_std_match_x": (
        True,
        ("m=1", "m=0"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "m=1\n"
        "m=0\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_index_store": (
        True,
        ("q=00100000", "q=00100100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00100000\n"
        "q=00100100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 3 ns",
        "",
    ),
    "vh_index_store_x": (
        True,
        ("q=00000000", "q=00000100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00000000\n"
        "q=00000100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 3 ns",
        "",
    ),
    "vh_slice_read": (
        True,
        ("y=1100", "y=0110"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=1100\n"
        "y=0110\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "vh_slice_read_x": (
        True,
        ("y=000x", "y=0110"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=000x\n"
        "y=0110\n"
        "INFO: [XSIM 4-302] Simulation completed at time 2 ns",
        "",
    ),
    "v_part_store": (
        True,
        ("q=01000100", "q=01110100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=01000100\n"
        "q=01110100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 0 ns",
        "",
    ),
    "v_part_store_x": (
        True,
        ("q=01000100", "q=01000100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=01000100\n"
        "q=01000100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 0 ns",
        "",
    ),
    "vh_slice_store": (
        True,
        ("q=00111100", "all ones", "low pair set", "v=00001100"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00111100\n"
        "all ones\n"
        "low pair set\n"
        "v=00001100\n"
        "INFO: [XSIM 4-302] Simulation completed at time 1 ns",
        "",
    ),
    "vh_slice_store_x": (
        False,
        ("q=00000000", "not all ones", "low pair clear"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "q=00000000\n"
        "not all ones\n"
        "low pair clear\n"
        "ERROR: [XSIM 43-3861] expression with unknown ('X') bits used as an integer",
        "expression with unknown ('X') bits used as an integer",
    ),
    "v_reversed_read": (
        True,
        ("y=000x",),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=000x\n"
        "INFO: [XSIM 4-302] Simulation completed at time 1 ns",
        "",
    ),
    "v_reversed_store": (
        True,
        ("y=10100101",),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=10100101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 1 ns",
        "",
    ),
    "v_reversed_dynamic_store": (
        True,
        ("y=10100101", "y=11011101"),
        "INFO: [XSIM 4-301] Starting simulation of 'tb'\n"
        "run all\n"
        "y=10100101\n"
        "y=11011101\n"
        "INFO: [XSIM 4-302] Simulation completed at time 0 ns",
        "",
    ),
}

def _simulate(name):
    language, source = CASES[name]
    files = [HdlFile(f"t{language.file_extension}", source, language)]
    result = Toolchain().simulate(files, "tb")
    return (
        result.ok,
        tuple(result.output_lines),
        result.log,
        result.runtime_error,
    )


def test_every_case_has_a_recorded_answer():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construct_matches_frozen_answer(name):
    assert _simulate(name) == EXPECTED[name]


@pytest.mark.parametrize("path", ["batch", "kernel"])
def test_reversed_part_select_in_a_batched_dut(path):
    """The batch tier reads a reversed range as X, exactly as the kernel."""
    from repro.designs.model import CombModel, DesignSpec, PortSpec
    from repro.designs.tbgen import make_testbench

    spec = DesignSpec(
        name="reversed",
        ports=(PortSpec("a", 8, "in"), PortSpec("y", 4, "out")),
        clocked=False,
    )
    model = CombModel(lambda v: {"y": v["a"] & 0xF})
    files = [
        HdlFile(
            "top_module.v",
            "module top_module(input [7:0] a, output [3:0] y);\n"
            "  assign y = a[0:3];\nendmodule\n",
            Language.VERILOG,
        ),
        HdlFile("tb.v", make_testbench(
            spec, model, Language.VERILOG, "reversed"), Language.VERILOG),
    ]
    if path == "kernel":
        files = plain_text(files)
    result, calls = simulate(files)
    assert calls == (path == "batch")
    assert result.ok and not result.runtime_error, result.log
    # every vector whose expected low nibble is nonzero sees X instead
    assert result.output_lines[-1].endswith("test case(s) failed.")
    assert "got x" in result.output_lines[0]


def test_x_replication_count_aborts_loudly():
    """An X replication count fails the run with its diagnostic text."""
    ok, lines, log, runtime_error = _simulate("v_replicate_x")
    assert not ok
    assert runtime_error == "replication count has unknown bits"
    assert "ERROR: [XSIM 43-3861] replication count has unknown bits" in log
    assert "Simulation completed" not in log
    assert lines == ()


_BROKEN = "RuntimeError: builder exploded"


@pytest.mark.parametrize(
    "name, module, builder, refused",
    [
        ("v_part_select", compile_verilog, "continuous_assign_factory",
         "assign@6"),
        # the run stops at the first refused process to start
        ("vh_index_store", compile_vhdl, "process_factory", "reg"),
    ],
    ids=["verilog-assign", "vhdl-process"],
)
def test_raising_process_builder_is_a_counted_run_time_refusal(
    name, module, builder, refused, monkeypatch
):
    """A builder that raises fails the run, not the compile, by name."""

    def broken(*args, **kwargs):
        raise RuntimeError("builder exploded")

    monkeypatch.setattr(module, builder, broken)
    language, source = CASES[name]
    files = [HdlFile(f"t{language.file_extension}", source, language)]
    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        toolchain = Toolchain()
        compiled = toolchain.compile(files, "tb")
        result = toolchain.simulate(files, "tb")
        refusals = get_tracer().metrics.counter("sim.compile.refusals").value
    finally:
        set_tracer(previous)
    assert compiled.ok and not compiled.diagnostics, compiled.log
    message = f"simulation compiler refused process '{refused}': {_BROKEN}"
    assert refusals == 1
    assert not result.ok
    assert result.runtime_error == message
    assert result.log.endswith(f"ERROR: [XSIM 43-3861] {message}")
    assert result.compile_result.ok


#: every process builder the elaborators hand to ``add_process``
_BUILDERS = {
    compile_verilog: (
        "continuous_assign_factory", "always_factory",
        "free_always_factory", "initial_factory", "wire_input_factory",
        "wire_output_factory",
    ),
    compile_vhdl: (
        "process_factory", "concurrent_assign_factory",
        "delayed_assign_factory", "conditional_assign_factory",
        "selected_assign_factory", "wire_input_factory", "wire_output_factory",
    ),
}


@pytest.fixture
def builds(monkeypatch):
    """Names of the process builders called, in call order."""
    calls = []
    for module, names in _BUILDERS.items():
        for builder in names:
            original = getattr(module, builder)

            def counted(*args, _original=original, _name=builder, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, builder, counted)
    return calls


def _kernel_slots(files, top):
    """Every process of the elaborated design."""
    design = Toolchain()._build_design(files, top, DiagnosticCollector())
    assert design is not None
    return design.processes


@pytest.mark.parametrize("name", ["v_part_select", "vh_index_store"])
def test_process_bodies_build_at_first_start_only(name, builds):
    """compile() builds no body; a kernel run builds each started one once."""
    language, source = CASES[name]
    files = [HdlFile(f"t{language.file_extension}", source, language)]
    toolchain = Toolchain()
    assert toolchain.compile(files, "tb").ok
    assert builds == []
    slots = _kernel_slots(files, "tb")
    assert builds == []
    result = toolchain.simulate(files, "tb")
    assert result.ok, result.log
    # every slot starts at time 0, and its body is built exactly then
    assert len(builds) == len(slots) > 0


def test_batch_tier_simulation_builds_only_dut_bodies(builds):
    """A batch-tier run builds each DUT process's own body once, and no
    testbench body: the testbench's schedule is the bundle's."""
    from repro.designs.model import CombModel, DesignSpec, PortSpec
    from repro.designs.tbgen import make_testbench

    spec = DesignSpec(
        name="andgate",
        ports=(PortSpec("a", 4, "in"), PortSpec("b", 4, "in"),
               PortSpec("y", 4, "out")),
        clocked=False,
    )
    model = CombModel(lambda v: {"y": v["a"] & v["b"]})
    dut = {
        Language.VERILOG: (
            "module top_module(input [3:0] a, input [3:0] b, "
            "output [3:0] y);\n  assign y = a & b;\nendmodule\n"
        ),
        Language.VHDL: (
            _VHDL_HEADER
            + "entity top_module is\n  port (a : in std_logic_vector(3 downto 0);\n"
            "        b : in std_logic_vector(3 downto 0);\n"
            "        y : out std_logic_vector(3 downto 0));\nend entity;\n"
            "architecture rtl of top_module is\nbegin\n  y <= a and b;\n"
            "end architecture;\n"
        ),
    }
    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        for language, text in dut.items():
            ext = language.file_extension
            files = [
                HdlFile(f"top_module{ext}", text, language),
                HdlFile(f"tb{ext}", make_testbench(
                    spec, model, language, "andgate"), language),
            ]
            result = Toolchain().simulate(files, "tb")
            assert result.ok, result.log
            assert any("passed" in line for line in result.output_lines)
        batched = get_tracer().metrics.counter("sim.batch_calls").value
    finally:
        set_tracer(previous)
    assert batched == 2
    assert builds == ["continuous_assign_factory", "concurrent_assign_factory"]

"""Unit tests for the batch tier (``repro.sim.batch``) and its plumbing.

The equivalence suite proves the tier is observationally identical to the
event kernel; these tests pin the *structural* contract instead: which
designs plan and which the planner refuses (each clause that remains with
a refused DUT next to a one-line fix that plans, in both languages where
the clause exists, counting exactly its own clause), that designs the old
shape recognizers refused plan and report what the kernel reports, that
nets written by disjoint static parts plan and settle as a kernel session
does, that every suite reference plans against its golden testbench's
ports, that no body may abort on unsettled values, that an evaluation
aborting on the batch path falls back to the kernel and a compiler raising
while a plan is built is the kernel's refusal, that processes written
against their dataflow still plan, that plans stay exact on ports wider
than 64 bits, that X-carrying vectors evaluate bit-exact with the kernel,
how the toolchain routes eligible bundles and counts them, that the
modeled cost is one formula on both paths, and that a generated testbench
carries its own stimulus bundle — including the
``vectors=``/``extra_vectors=`` replacement contract, that every suite
problem's golden testbenches carry theirs, that a plain-text copy runs on
the kernel with the same observables, and that no bundle outlives the
testbench holding it.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import tbgen
from repro.designs.model import CombModel, DesignSpec, PortSpec, SeqModel
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.diagnostics import DiagnosticCollector
from repro.sim import batch
from repro.sim.values import Logic
from tests.simpaths import observables, plain_text, simulate, simulate_kernel
from tests.test_sim_batch_constructs import kernel_rows, simulate_vectors


def build(source: str, language=Language.VERILOG, top: str = "top_module"):
    ext = language.file_extension
    files = [HdlFile(f"t{ext}", source, language)]
    collector = DiagnosticCollector()
    design = Toolchain()._build_design(files, top, collector)
    assert design is not None, [str(d) for d in collector.diagnostics]
    return design


COMB_V = """
module top_module(input [7:0] a, input [7:0] b, output [7:0] y);
    wire [7:0] t = a ^ b;
    assign y = t + a;
endmodule
"""

WIDE_V = """
module top_module(input [95:0] a, input [95:0] b, output [95:0] y);
    assign y = (a ^ b) + a;
endmodule
"""

SEQ_V = """
module top_module(input clk, input rst, input [7:0] d,
                  output reg [7:0] q, output [7:0] dd);
    assign dd = d ^ q;
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + d;
    end
endmodule
"""

GATED_SEQ_V = """
module top_module(input clk, input rst, input en, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else if (en) q <= q + 1;
    end
endmodule
"""


def _comb_expected(vector):
    a, b = vector["a"], vector["b"]
    return ((a ^ b) + a) & 0xFF


class TestSimulateVectors:
    def test_known_vectors_are_exact(self):
        design = build(COMB_V)
        vectors = [{"a": a, "b": b} for a, b in
                   ((3, 5), (0, 0), (255, 255), (127, 64))]
        rows = simulate_vectors(design, vectors)
        assert rows is not None
        for vector, row in zip(vectors, rows):
            assert row["y"] == Logic.from_int(_comb_expected(vector), 8)

    def test_wide_signals_are_exact(self):
        design = build(WIDE_V)
        mask = (1 << 96) - 1
        vectors = [
            {"a": 0, "b": 0},
            {"a": mask, "b": 1},
            {"a": 0x0123_4567_89AB_CDEF_0011_2233, "b": 0xFFFF_0000_FFFF},
            {"a": 1 << 95, "b": 1 << 64},
        ]
        rows = simulate_vectors(design, vectors)
        assert rows is not None
        for vector, row in zip(vectors, rows):
            want = ((vector["a"] ^ vector["b"]) + vector["a"]) & mask
            assert row["y"] == Logic.from_int(want, 96)

    def test_x_vector_stays_in_its_row(self):
        design = build(COMB_V)
        vectors = [
            {"a": 3, "b": 5},
            {"a": Logic.from_string("xxxx0011"), "b": 5},
            {"a": 7, "b": 5},
        ]
        rows = simulate_vectors(design, vectors)
        assert rows is not None
        assert rows[0]["y"] == Logic.from_int(_comb_expected(vectors[0]), 8)
        assert rows[2]["y"] == Logic.from_int(((7 ^ 5) + 7) & 0xFF, 8)
        assert rows[1]["y"].has_x

    def test_x_vector_matches_event_kernel(self):
        # the same X stimulus driven through the design's own processes on
        # the event kernel must agree bit-for-bit
        vectors = [{"a": Logic.from_string("xxxx0011"), "b": 5}]
        inputs, outputs = [("a", 8), ("b", 8)], [("y", 8)]
        rows = simulate_vectors(
            build(COMB_V), vectors, inputs=inputs, outputs=outputs
        )
        assert rows == kernel_rows(build(COMB_V), vectors, inputs, outputs)

    def test_missing_input_raises(self):
        design = build(COMB_V)
        with pytest.raises(KeyError):
            simulate_vectors(
                design, [{"a": 1}], inputs=[("a", 8), ("b", 8)],
                outputs=[("y", 8)],
            )

    def test_empty_vector_list_is_unplannable(self):
        design = build(COMB_V)
        assert simulate_vectors(design, []) is None


@given(seed=st.integers(0, 2**16), x_index=st.integers(0, 5))
@settings(deadline=None, max_examples=20)
def test_property_mixed_x_vectors_match_kernel(seed, x_index):
    """Random vectors with one X-contaminated entry: every row must match a
    kernel session's."""
    import random as _random

    rng = _random.Random(seed)
    vectors = []
    for i in range(6):
        if i == x_index:
            bits = rng.getrandbits(8)
            xmask = rng.getrandbits(8) | 1
            vectors.append({
                "a": Logic._make(8, bits & ~xmask, xmask),
                "b": rng.getrandbits(8),
            })
        else:
            vectors.append(
                {"a": rng.getrandbits(8), "b": rng.getrandbits(8)}
            )
    inputs, outputs = [("a", 8), ("b", 8)], [("y", 8)]
    rows = simulate_vectors(
        build(COMB_V), vectors, inputs=inputs, outputs=outputs
    )
    assert rows == kernel_rows(build(COMB_V), vectors, inputs, outputs)


class TestPlanEligibility:
    @pytest.mark.parametrize("language", list(Language))
    def test_unknown_port_is_refused(self, language):
        source = (COMB_V if language is Language.VERILOG else COMB_VHD)
        plan, refusals = _planned(
            batch.plan_combinational, build(source, language),
            [("a", 8), ("nope", 8)], [("y", 8)],
        )
        assert plan is None
        assert refusals == {"unknown-port": 1}

    def test_clocked_design_is_not_combinational(self):
        plan, refusals = _planned(
            batch.plan_combinational, build(SEQ_V), [("d", 8)], [("q", 8)]
        )
        assert plan is None
        assert refusals == {"not-on-clk": 1}


def _planned(plan_fn, design, in_ports, out_ports):
    """``(plan, {clause: refusals})`` of one planning, counted afresh."""
    from repro.obs import NullSink, Tracer, get_tracer, set_tracer

    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        plan = plan_fn(design, in_ports, out_ports)
        metrics = get_tracer().metrics
        counts = {
            clause: metrics.counter(f"sim.batch_plan.refused.{clause}").value
            for clause in batch.CLAUSES
        }
    finally:
        set_tracer(previous)
    return plan, {clause: n for clause, n in counts.items() if n}


_REFUSAL_HEAD = "module top_module(input [3:0] a, output [3:0] y);\n"
_REG_HEAD = "module top_module(input [3:0] a, output reg [3:0] y);\n"

_VH_REFUSAL_HEAD = (
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n"
    "entity top_module is\n"
    "    port (a : in std_logic_vector(3 downto 0);\n"
    "          y : out std_logic_vector(3 downto 0));\n"
    "end entity;\n"
    "architecture rtl of top_module is\n"
)
_VH_T = "    signal t : std_logic_vector(3 downto 0);\n"
_VH_PQ = "    signal p, q : std_logic_vector(3 downto 0);\n"
_VH_C = "    signal c : std_logic;\n"
_VH_I = "    signal i : integer := 0;\n"
_VH_END = "end architecture;\n"


def _vh_process(body: str, sens: str = "a", decls: str = "") -> str:
    return (
        _VH_REFUSAL_HEAD + _VH_T + "begin\n    t <= not a;\n"
        f"    process ({sens})\n{decls}    begin\n{body}    end process;\n"
        + _VH_END
    )


_V = Language.VERILOG
_VH = Language.VHDL

#: clause -> [(language, DUT the combinational planner refuses by that
#: clause, the same DUT with its one defect fixed)] over ports a -> y
COMB_REFUSALS = {
    "multi-driven": [
        (_V, _REFUSAL_HEAD + "    assign y = a;\n    assign y = ~a;\n"
         "endmodule\n",
         _REFUSAL_HEAD + "    assign y = ~a;\nendmodule\n"),
        # parts of one net whose bits overlap
        (_V, _REFUSAL_HEAD + "    assign y[2:0] = a[2:0];\n"
         "    assign y[3:2] = a[3:2];\nendmodule\n",
         _REFUSAL_HEAD + "    assign y = a;\nendmodule\n"),
        (_VH, _VH_REFUSAL_HEAD + "begin\n    y <= a;\n    y <= not a;\n"
         + _VH_END,
         _VH_REFUSAL_HEAD + "begin\n    y <= not a;\n" + _VH_END),
        (_VH, _VH_REFUSAL_HEAD + "begin\n    y(2 downto 0) <= a(2 downto 0);\n"
         "    y(3 downto 2) <= a(3 downto 2);\n" + _VH_END,
         _VH_REFUSAL_HEAD + "begin\n    y <= a;\n" + _VH_END),
        # a part writer that reads its own net writes it whole, as far as
        # the plan knows
        (_V, _REFUSAL_HEAD + "    assign y[0] = a[0];\n"
         "    assign y[1] = y[0] ^ a[1];\n    assign y[3:2] = a[3:2];\n"
         "endmodule\n",
         _REFUSAL_HEAD + "    assign y[0] = a[0];\n"
         "    assign y[1] = a[0] ^ a[1];\n    assign y[3:2] = a[3:2];\n"
         "endmodule\n"),
        (_VH, _VH_REFUSAL_HEAD + _VH_T + "begin\n    t(0) <= a(0);\n"
         "    t(1) <= t(0) xor a(1);\n    t(3 downto 2) <= a(3 downto 2);\n"
         "    y <= t;\n" + _VH_END,
         _VH_REFUSAL_HEAD + _VH_T + "begin\n    t(0) <= a(0);\n"
         "    t(1) <= a(0) xor a(1);\n    t(3 downto 2) <= a(3 downto 2);\n"
         "    y <= t;\n" + _VH_END),
        # so does a part write whose index is not static
        (_V, _REFUSAL_HEAD + "    wire i = 1'b0;\n    assign y[i] = a[0];\n"
         "    assign y[3:1] = a[3:1];\nendmodule\n",
         _REFUSAL_HEAD + "    wire i = 1'b0;\n    assign y[0] = a[0];\n"
         "    assign y[3:1] = a[3:1];\nendmodule\n"),
        (_VH, _VH_REFUSAL_HEAD + _VH_I + "begin\n    y(i) <= a(0);\n"
         "    y(3 downto 1) <= a(3 downto 1);\n" + _VH_END,
         _VH_REFUSAL_HEAD + _VH_I + "begin\n    y(0) <= a(0);\n"
         "    y(3 downto 1) <= a(3 downto 1);\n" + _VH_END),
    ],
    "stateful": [
        # a latch: y keeps its value when a[3] is 0
        (_V, _REG_HEAD + "    always @(*) if (a[3]) y = a;\nendmodule\n",
         _REG_HEAD + "    always @(*) if (a[3]) y = a; else y = 4'd0;\n"
         "endmodule\n"),
        (_V, _REFUSAL_HEAD + "    wire [3:0] t;\n    assign t = t & a;\n"
         "    assign y = t;\nendmodule\n",
         _REFUSAL_HEAD + "    wire [3:0] t;\n    assign t = 4'hF & a;\n"
         "    assign y = t;\nendmodule\n"),
        # the concurrent form needs its final else, the sequential does not
        (_VH, _vh_process("        if a(3) = '1' then y <= a; end if;\n"),
         _vh_process("        if a(3) = '1' then y <= a; else y <= not a; "
                     "end if;\n")),
        (_VH, _vh_process("        v := v xor a;\n        y <= v;\n",
                          decls="        variable v : std_logic_vector"
                          "(3 downto 0);\n"),
         _vh_process("        v := not a;\n        y <= v;\n",
                     decls="        variable v : std_logic_vector"
                     "(3 downto 0);\n")),
        (_VH, _VH_REFUSAL_HEAD + _VH_T + "begin\n    t <= t and a;\n"
         "    y <= t;\n" + _VH_END,
         _VH_REFUSAL_HEAD + _VH_T + "begin\n    t <= \"1111\" and a;\n"
         "    y <= t;\n" + _VH_END),
        (_VH, _VH_REFUSAL_HEAD + _VH_C + "begin\n    c <= a(0);\n"
         "    y <= a when rising_edge(c) else not a;\n" + _VH_END,
         _VH_REFUSAL_HEAD + _VH_C + "begin\n    c <= a(0);\n"
         "    y <= a when c = '1' else not a;\n" + _VH_END),
    ],
    "sensitivity": [
        (_V, _REG_HEAD + "    wire [3:0] t = ~a;\n"
         "    always @(a) y = a & t;\nendmodule\n",
         _REG_HEAD + "    wire [3:0] t = ~a;\n"
         "    always @(a or t) y = a & t;\nendmodule\n"),
        (_VH, _vh_process("        y <= a and t;\n"),
         _vh_process("        y <= a and t;\n", sens="a, t")),
    ],
    "cycle": [
        (_V, _REFUSAL_HEAD + "    wire [3:0] p, q;\n    assign p = q ^ a;\n"
         "    assign q = p;\n    assign y = p;\nendmodule\n",
         _REFUSAL_HEAD + "    wire [3:0] p, q;\n    assign p = q ^ a;\n"
         "    assign q = a;\n    assign y = p;\nendmodule\n"),
        (_VH, _VH_REFUSAL_HEAD + _VH_PQ + "begin\n    p <= q xor a;\n"
         "    q <= p;\n    y <= p;\n" + _VH_END,
         _VH_REFUSAL_HEAD + _VH_PQ + "begin\n    p <= q xor a;\n"
         "    q <= a;\n    y <= p;\n" + _VH_END),
    ],
    "unsettled": [
        (_V, _REFUSAL_HEAD + "    assign y = a ^ $random;\nendmodule\n",
         _REFUSAL_HEAD + "    assign y = a ^ 4'd5;\nendmodule\n"),
        (_V, _REFUSAL_HEAD + "    assign y = {a[1:0]{a[3]}};\nendmodule\n",
         _REFUSAL_HEAD + "    assign y = {4{a[3]}};\nendmodule\n"),
        (_V, _REFUSAL_HEAD + "    assign y = a[a[1:0]:0];\nendmodule\n",
         _REFUSAL_HEAD + "    assign y = a[3:0];\nendmodule\n"),
        (_V, _REG_HEAD + "    always @(*) begin y = 0; "
         "while (y < a) y = y + 1; end\nendmodule\n",
         _REG_HEAD + "    always @(*) begin y = 0; "
         "y = y + a; end\nendmodule\n"),
        (_VH, _VH_REFUSAL_HEAD + "begin\n"
         "    y <= a(to_integer(unsigned(a(1 downto 0))) downto 0);\n" + _VH_END,
         _VH_REFUSAL_HEAD + "begin\n    y <= a(3 downto 0);\n" + _VH_END),
        (_VH, _VH_REFUSAL_HEAD + "begin\n    y <= std_logic_vector(resize("
         "unsigned(a), to_integer(unsigned(a(1 downto 0))) + 1));\n" + _VH_END,
         _VH_REFUSAL_HEAD + "begin\n"
         "    y <= std_logic_vector(resize(unsigned(a), 4));\n" + _VH_END),
    ],
}

_SEQ_PORTS = ([("d", 4)], [("q", 4), ("dd", 4)])


def _seq_dut(dd: str = "d ^ q", edge: str = "clk", nxt: str = "q + d",
             clock: str = "clk") -> str:
    return (
        f"module top_module(input {clock}, input clk2, input rst,\n"
        "                  input [3:0] d, output reg [3:0] q,\n"
        "                  output [3:0] dd);\n"
        f"    assign dd = {dd};\n"
        f"    always @(posedge {edge}) begin\n"
        f"        if (rst) q <= 4'd0;\n        else q <= {nxt};\n"
        "    end\nendmodule\n"
    )


def _vh_seq_dut(nxt: str = "d", dd: str = "not d", sens: str = "clk",
                clock: str = "clk") -> str:
    return f"""
library ieee;
use ieee.std_logic_1164.all;
entity top_module is
    port ({clock} : in std_logic; rst : in std_logic;
          d : in std_logic_vector(3 downto 0);
          q : out std_logic_vector(3 downto 0);
          dd : out std_logic_vector(3 downto 0));
end entity;
architecture rtl of top_module is
begin
    dd <= {dd};
    process ({sens}) begin
        if rising_edge({clock}) then
            if rst = '1' then
                q <= "0000";
            else
                q <= {nxt};
            end if;
        end if;
    end process;
end architecture;
"""


#: the same table for the clocked planner, over ports d -> q, dd with clk
#: and rst, which the run drives as the testbench does
SEQ_REFUSALS = {
    "no-clock": [
        (_V, _seq_dut(edge="ck", clock="ck"), _seq_dut()),
        (_VH, _vh_seq_dut(sens="ck", clock="ck"), _vh_seq_dut()),
    ],
    "not-on-clk": [
        (_V, _seq_dut(edge="clk2"), _seq_dut()),
        (_VH, _vh_seq_dut(sens="clk, rst"), _vh_seq_dut()),
    ],
    "reads-clock": [
        (_V, _seq_dut(dd="d ^ {4{clk}}"), _seq_dut()),
        (_VH, _vh_seq_dut(dd="d and (others => clk)"), _vh_seq_dut()),
    ],
}


def _cases(table, clocked):
    return [
        (clocked, clause, k, language)
        for clause, rows in sorted(table.items())
        for k, (language, _refused, _fixed) in enumerate(rows)
    ]


_ALL_REFUSALS = _cases(COMB_REFUSALS, False) + _cases(SEQ_REFUSALS, True)


class TestPlanRefusals:
    """Each clause that remains, with a refused DUT next to a one-line fix
    that plans; refusing it counts exactly its own clause."""

    @pytest.mark.parametrize(
        "clocked,clause,k,language", _ALL_REFUSALS,
        ids=[f"{c}-{k}-{lang.value}" for _s, c, k, lang in _ALL_REFUSALS],
    )
    def test_refused_and_fixed(self, clocked, clause, k, language):
        table = SEQ_REFUSALS if clocked else COMB_REFUSALS
        _language, refused, fixed = table[clause][k]
        plan_fn = batch.plan_sequential if clocked else batch.plan_combinational
        ports = _SEQ_PORTS if clocked else ([("a", 4)], [("y", 4)])
        plan, refusals = _planned(plan_fn, build(refused, language), *ports)
        assert plan is None
        assert refusals == {clause: 1}
        plan, refusals = _planned(plan_fn, build(fixed, language), *ports)
        assert plan is not None
        assert refusals == {}

    def test_every_clause_is_documented(self):
        from pathlib import Path

        design = (Path(__file__).parents[1] / "DESIGN.md").read_text()
        for clause in batch.CLAUSES:
            assert f"`{clause}`" in design, clause


def _reg_reads_model(language, shows_d=False):
    """The register-reads DUTs' model: the Verilog one accumulates
    ``q + d`` and shows ``d ^ q`` (``d`` with *shows_d*), the VHDL one
    loads ``d`` and shows ``not d``."""

    def step(q, inputs):
        d = inputs["d"]
        if language is Language.VERILOG:
            q = (q + d) & 0xF
            return q, {"q": q, "dd": d if shows_d else d ^ q}
        return d, {"q": d, "dd": ~d & 0xF}

    return SeqModel(reset=lambda: 0, step=step)


def _gated_model(state, inputs):
    nxt = (state + 1) & 0xFF if inputs["en"] else state
    return nxt, {"q": nxt}


def _parts_model(a):
    """The disjoint-part DUTs over ports a -> y: y[3] = a[0], y[2:1] =
    a[2:1] + 1 and y[0] = a[3]."""
    return {"y": (a & 1) << 3 | (((a >> 1) + 1) & 3) << 1 | a >> 3}


def _port_parts_model(a):
    """t = ~a[1:0] through two inverter instances; y = {a[3:2] ^ t, t}."""
    t = ~a & 3
    return {"y": ((a >> 2) ^ t) << 2 | t}


_VH_INV = (
    "library ieee;\nuse ieee.std_logic_1164.all;\n"
    "entity inv is\n    port (a : in std_logic; y : out std_logic);\n"
    "end entity;\narchitecture rtl of inv is\nbegin\n    y <= not a;\n"
    "end architecture;\n"
)

#: nets written part by part from several processes, whose bits do not
#: overlap: name -> (language, DUT over ports a -> y, None, model)
DISJOINT_PARTS = {
    "parts-assign": (
        _V, _REFUSAL_HEAD + "    assign y[1 +: 2] = a[2:1] + 2'd1;\n"
        "    assign {y[3], y[0]} = {a[0], a[3]};\nendmodule\n", None,
        lambda v: _parts_model(v["a"]),
    ),
    "parts-output-ports": (
        _V, "module inv(input a, output y);\n    assign y = ~a;\nendmodule\n"
        + _REFUSAL_HEAD + "    wire [1:0] t;\n"
        "    inv i0(.a(a[0]), .y(t[0]));\n    inv i1(.a(a[1]), .y(t[1]));\n"
        "    assign y[1:0] = t;\n    assign y[3:2] = a[3:2] ^ t;\n"
        "endmodule\n", None,
        lambda v: _port_parts_model(v["a"]),
    ),
    "vhdl-parts-assign": (
        _VH, _VH_REFUSAL_HEAD + "begin\n    y(3) <= a(0);\n"
        "    y(2 downto 1) <= std_logic_vector(unsigned(a(2 downto 1)) + 1);\n"
        "    y(0) <= a(3);\n" + _VH_END, None,
        lambda v: _parts_model(v["a"]),
    ),
    # an ascending range: t(0) is its leftmost, most significant bit, so
    # y = {a[1], a[0], ~a[2], a[3]}
    "vhdl-parts-to-range": (
        _VH, _VH_REFUSAL_HEAD + "    signal t : std_logic_vector(0 to 3);\n"
        "begin\n    t(0 to 1) <= a(1 downto 0);\n    t(2) <= not a(2);\n"
        "    t(3) <= a(3);\n    y <= t;\n" + _VH_END, None,
        lambda v: {"y": (v["a"] & 3) << 2 | (~v["a"] >> 1 & 2)
                   | v["a"] >> 3},
    ),
    "vhdl-parts-output-ports": (
        _VH, _VH_INV + _VH_REFUSAL_HEAD
        + "    signal t : std_logic_vector(1 downto 0);\nbegin\n"
        "    i0: entity work.inv port map (a => a(0), y => t(0));\n"
        "    i1: entity work.inv port map (a => a(1), y => t(1));\n"
        "    y(1 downto 0) <= t;\n"
        "    y(3 downto 2) <= a(3 downto 2) xor t;\n" + _VH_END, None,
        lambda v: _port_parts_model(v["a"]),
    ),
}

#: DUTs the shape recognizers or the whole-signal driver rule refused and
#: the one rule plans: name -> (language, DUT, data ports, model)
NOW_PLANNED = {
    **DISJOINT_PARTS,
    "gated-register": (
        _V, GATED_SEQ_V, (PortSpec("en", 1, "in"), PortSpec("q", 8, "out")),
        SeqModel(reset=lambda: 0, step=_gated_model),
    ),
    "member-reads-reset": (
        _V, _seq_dut(dd="d ^ {4{rst}}"), None,
        _reg_reads_model(_V, shows_d=True),
    ),
    "register-reads-clock": (
        _V, _seq_dut(nxt="(q + d) & {4{clk}}"), None, _reg_reads_model(_V),
    ),
    "register-reads-reset": (
        _V, _seq_dut(nxt="(q + d) | {4{rst}}"), None, _reg_reads_model(_V),
    ),
    "vhdl-register-reads-clock": (
        _VH, _vh_seq_dut(nxt="d and (others => clk)"), None,
        _reg_reads_model(_VH),
    ),
    "vhdl-register-reads-reset": (
        _VH, _vh_seq_dut(nxt="d and (others => not rst)"), None,
        _reg_reads_model(_VH),
    ),
    "always-star": (
        _V, _REG_HEAD + "    always @(*) y = a + 1;\nendmodule\n", None,
        lambda v: {"y": (v["a"] + 1) & 0xF},
    ),
    "vhdl-process": (
        _VH, _VH_REFUSAL_HEAD + "begin\n    process (a) begin\n"
        "        y <= not a;\n    end process;\n" + _VH_END, None,
        lambda v: {"y": ~v["a"] & 0xF},
    ),
    "vhdl-selected-assign": (
        _VH, _VH_REFUSAL_HEAD + "begin\n    with a(0) select\n"
        "        y <= a when '1', not a when others;\n" + _VH_END, None,
        lambda v: {"y": v["a"] if v["a"] & 1 else ~v["a"] & 0xF},
    ),
}

_COMB_PORTS = (PortSpec("a", 4, "in"), PortSpec("y", 4, "out"))
_SEQ_DATA_PORTS = (PortSpec("d", 4, "in"), PortSpec("q", 4, "out"),
                   PortSpec("dd", 4, "out"))


class TestNowPlanned:
    """Designs the old recognizers refused plan now, and their golden
    testbenches report on the batch path what the kernel reports."""

    @pytest.mark.parametrize("name", sorted(NOW_PLANNED))
    def test_plans_and_matches_the_kernel(self, name):
        language, dut, ports, model = NOW_PLANNED[name]
        clocked = isinstance(model, SeqModel)
        if ports is None:
            ports = _SEQ_DATA_PORTS if clocked else _COMB_PORTS
        options = {"vectors": [{"d": d} for d in (1, 2, 3, 9, 15)]} if (
            clocked and ports is _SEQ_DATA_PORTS
        ) else {}
        files = _golden_files(language, dut, ports, model, f"now-{name}",
                              **options)
        default, calls = simulate(files)
        kernel = simulate_kernel(files)
        assert calls == 1
        assert default.output_lines == (tbgen.PASS_MESSAGE,), default.log
        assert observables(default) == observables(kernel)


#: X-carrying stimulus for the disjoint-part DUTs, against known rows
_X_PART_VECTORS = [
    {"a": 5}, {"a": Logic.from_string("x010")}, {"a": 12},
    {"a": Logic.from_string("1xz0")}, {"a": Logic.from_string("xxxx")},
    {"a": 9},
]


class TestDisjointParts:
    """A net that several processes write part by part plans when their
    bits do not overlap, and every row settles bit for bit as a kernel
    session does."""

    @pytest.mark.parametrize("name", sorted(DISJOINT_PARTS))
    def test_x_vectors_match_the_kernel(self, name):
        language, dut, _ports, model = DISJOINT_PARTS[name]
        ports = ([("a", 4)], [("y", 4)])
        plan, refusals = _planned(
            batch.plan_combinational, build(dut, language), *ports
        )
        assert plan is not None and refusals == {}
        rows = simulate_vectors(build(dut, language), _X_PART_VECTORS,
                                inputs=ports[0], outputs=ports[1])
        assert rows == kernel_rows(build(dut, language), _X_PART_VECTORS,
                                   *ports)
        for vector, row in zip(_X_PART_VECTORS, rows):
            if isinstance(vector["a"], int):
                assert row["y"] == Logic.from_int(model(vector)["y"], 4)
            else:
                assert row["y"].has_x

    def test_parts_record_the_bits_they_write(self):
        _language, dut, _ports, _model = DISJOINT_PARTS["vhdl-parts-to-range"]
        design = build(dut, Language.VHDL)
        t = design.signals["t"]
        parts = sorted(
            dict(process.facts().parts)[t] for process in design.processes
            if t in process.facts().writes
        )
        # t(0 to 1) is bits 3..2 of the vector, t(2) bit 1, t(3) bit 0
        assert parts == [0b0001, 0b0010, 0b1100]


class TestSuiteCoverage:
    """Every suite reference plans against its golden testbench's ports, so
    none of their simulates falls back to the kernel."""

    def test_every_suite_reference_plans(self):
        from repro.designs.model import TOP_NAME
        from repro.evalsuite.suite import build_suite

        refused, planned = [], 0
        for problem in build_suite():
            for language, testbench in problem.golden_tb.items():
                spec = testbench.bundle.spec
                planner = (batch.plan_sequential if spec.clocked
                           else batch.plan_combinational)
                plan, refusals = _planned(
                    planner,
                    build(problem.reference[language], language, TOP_NAME),
                    [(p.name, p.width) for p in spec.inputs],
                    [(p.name, p.width) for p in spec.outputs],
                )
                if plan is None:
                    refused.append((problem.pid, language.value, refusals))
                planned += plan is not None
        assert refused == []
        assert planned == 312


#: DUTs the kernel fails at time 0, before an operand has settled: its
#: last-in, first-out active list runs the Verilog replication before the
#: assign that drives its count, and a VHDL testbench drives ``n`` through
#: the nonblocking region, so the resize first sees a ``'U'`` length
TIME0_V = """
module top_module(input [1:0] a, input [2:0] n, output [13:0] y);
    wire [2:0] k = n | 3'd1;
    assign y = {k{a[1:0]}};
endmodule
"""
TIME0_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
    port (a : in std_logic_vector(7 downto 0);
          n : in std_logic_vector(2 downto 0);
          y : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top_module is
begin
    y <= std_logic_vector(resize(unsigned(a), to_integer(unsigned(n)) + 1));
end architecture;
"""


def _replicated(a: int, n: int) -> int:
    value = 0
    for _ in range(n | 1):
        value = (value << 2) | a
    return value


#: language → (DUT, data ports, model)
TIME0_CASES = {
    Language.VERILOG: (
        TIME0_V,
        (PortSpec("a", 2, "in"), PortSpec("n", 3, "in"),
         PortSpec("y", 14, "out")),
        lambda v: {"y": _replicated(v["a"], v["n"])},
    ),
    Language.VHDL: (
        TIME0_VHD,
        (PortSpec("a", 8, "in"), PortSpec("n", 3, "in"),
         PortSpec("y", 8, "out")),
        lambda v: {"y": v["a"] & ((2 << v["n"]) - 1)},
    ),
}

#: plans (its replication count is static), but its first evaluation
#: aborts: 4096 copies of 32 bits exceed the supported width
OVERWIDE_V = """
module top_module(input [31:0] a, output [7:0] y);
    wire [7:0] w = {4096{a}};
    assign y = w;
endmodule
"""


def _golden_files(language, dut, ports, model, pid, **options):
    """*dut* and its generated golden testbench. *model* is a
    :class:`SeqModel` for a clocked spec, else a function of the inputs;
    *options* go to ``make_testbench``."""
    clocked = isinstance(model, SeqModel)
    spec = DesignSpec(name=pid, ports=ports, clocked=clocked)
    testbench = tbgen.make_testbench(
        spec, model if clocked else CombModel(model), language, pid, **options
    )
    ext = language.file_extension
    return [HdlFile(f"top_module{ext}", dut, language),
            HdlFile(f"tb{ext}", testbench, language)]


def _simulate_counted(files, clause):
    """``(result, batch calls, refusals counted under clause, compiler
    refusals)`` of one simulate in a fresh toolchain."""
    from repro.obs import NullSink, Tracer, get_tracer, set_tracer

    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        result = Toolchain().simulate(files, "tb")
        metrics = get_tracer().metrics
        counts = (
            metrics.counter("sim.batch_calls").value,
            metrics.counter(f"sim.batch_plan.refused.{clause}").value,
            metrics.counter("sim.compile.refusals").value,
        )
    finally:
        set_tracer(previous)
    return (result, *counts)


class TestSettledValues:
    """The batch path steps combinational processes only on settled
    values, so no body may abort on values that have not settled; an abort
    a run meets anyway hands the run to the kernel."""

    @pytest.mark.parametrize("language", list(Language))
    def test_time_zero_failure_does_not_plan(self, language):
        dut, ports, model = TIME0_CASES[language]
        in_ports = [(p.name, p.width) for p in ports if p.direction == "in"]
        plan, refusals = _planned(
            batch.plan_combinational, build(dut, language), in_ports,
            [("y", 8)],
        )
        assert plan is None
        assert refusals == {"unsettled": 1}
        files = _golden_files(language, dut, ports, model, "time0")
        default, calls = simulate(files)
        kernel = simulate_kernel(files)
        assert calls == 0
        assert kernel.runtime_error
        assert observables(default) == observables(kernel)

    def test_abort_on_the_batch_path_falls_back_to_the_kernel(self):
        design = build(OVERWIDE_V)
        assert batch.plan_combinational(
            design, [("a", 32)], [("y", 8)]
        ) is not None
        files = _golden_files(
            Language.VERILOG, OVERWIDE_V,
            (PortSpec("a", 32, "in"), PortSpec("y", 8, "out")),
            lambda v: {"y": v["a"]}, "overwide",
        )
        default, calls, refusals, _ = _simulate_counted(files, "run-time")
        kernel = simulate_kernel(files)
        assert (calls, refusals) == (0, 1)
        assert "replication result width 131072 exceeds" in default.runtime_error
        assert observables(default) == observables(kernel)

    @pytest.mark.parametrize("language", list(Language))
    def test_compiler_raising_at_plan_time_is_the_kernels_refusal(
        self, language, monkeypatch
    ):
        """A closure compiler that raises while a plan is built refuses the
        plan; the kernel then refuses the process by name, as it does for
        the testbench's plain text, and the refusal that fails the run is
        counted once on either path."""
        from repro.sim.compile import verilog as cv
        from repro.sim.compile import vhdl as cvh

        # an operator the DUT uses and its generated testbench does not
        module, op = {Language.VERILOG: (cv, "^"),
                      Language.VHDL: (cvh, "xor")}[language]
        original = module.compile_expr

        def exploding(expr, *args, **kwargs):
            if getattr(expr, "op", None) == op:
                raise RuntimeError("compiler exploded")
            return original(expr, *args, **kwargs)

        monkeypatch.setattr(module, "compile_expr", exploding)
        dut = {
            Language.VERILOG: _REFUSAL_HEAD + "    assign y = a ^ 4'd5;\n"
            "endmodule\n",
            Language.VHDL: _VH_REFUSAL_HEAD + "begin\n"
            "    y <= a xor \"0101\";\n" + _VH_END,
        }[language]
        files = _golden_files(
            language, dut, (PortSpec("a", 4, "in"), PortSpec("y", 4, "out")),
            lambda v: {"y": v["a"] ^ 5}, f"exploding-{language.value}",
        )
        default, calls, refusals, compiled = _simulate_counted(
            files, "compiler"
        )
        kernel, kernel_calls, _, kernel_compiled = _simulate_counted(
            plain_text(files), "compiler"
        )
        assert (calls, refusals, compiled) == (0, 1, 1)
        assert (kernel_calls, kernel_compiled) == (0, 1)
        assert default.runtime_error.startswith(
            "simulation compiler refused process"
        )
        assert default.runtime_error.endswith("RuntimeError: compiler exploded")
        assert observables(default) == observables(kernel)


#: a 13-member chain written against its dataflow: each assign reads the
#: net the next line drives
CHAIN_V = (
    "module top_module(input [7:0] a, output [7:0] y);\n"
    "    wire [7:0] " + ", ".join(f"s{k}" for k in range(1, 13)) + ";\n"
    "    assign y = s12 ^ 8'h5A;\n"
    + "".join(f"    assign s{k} = s{k - 1} + 8'd3;\n" for k in range(12, 1, -1))
    + "    assign s1 = a + 8'd3;\nendmodule\n"
)
CHAIN_VHD = (
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n"
    "entity top_module is\n"
    "    port (a : in unsigned(7 downto 0); y : out unsigned(7 downto 0));\n"
    "end entity;\narchitecture rtl of top_module is\n"
    "    signal " + ", ".join(f"s{k}" for k in range(1, 13))
    + " : unsigned(7 downto 0);\nbegin\n"
    "    y <= s12 xor x\"5A\";\n"
    + "".join(f"    s{k} <= s{k - 1} + 3;\n" for k in range(12, 1, -1))
    + "    s1 <= a + 3;\nend architecture;\n"
)


def _chain_expected(a: int) -> int:
    for _ in range(12):
        a = (a + 3) & 0xFF
    return a ^ 0x5A


class TestProcessOrder:
    """Processes arrive in elaboration order; the plan steps the
    combinational ones in dataflow order."""

    @pytest.mark.parametrize("language,source", [
        (Language.VERILOG, CHAIN_V), (Language.VHDL, CHAIN_VHD),
    ], ids=["verilog", "vhdl"])
    def test_chain_against_dataflow_plans_exactly(self, language, source):
        design = build(source, language)

        def targets(processes):
            return [next(iter(p.facts().writes)).name for p in processes]

        assert targets(design.processes) == (
            ["y"] + [f"s{k}" for k in range(12, 0, -1)]
        )
        plan = batch.plan_combinational(design, [("a", 8)], [("y", 8)])
        assert targets(plan.comb) == [f"s{k}" for k in range(1, 13)] + ["y"]
        rows = simulate_vectors(
            design, [{"a": a} for a in range(256)],
            inputs=[("a", 8)], outputs=[("y", 8)],
        )
        assert rows is not None
        assert [row["y"] for row in rows] == [
            Logic.from_int(_chain_expected(a), 8) for a in range(256)
        ]


def _seq_ref_model(wrong_cycle=None):
    """SEQ_V's Python model; the cycle *wrong_cycle* expects q + 1."""

    def step(state, inputs):
        q, cycle = state
        q = (q + inputs["d"]) & 0xFF
        cycle += 1
        return (q, cycle), {
            "q": q + (cycle == wrong_cycle), "dd": (inputs["d"] ^ q) & 0xFF,
        }

    return SeqModel(reset=lambda: (0, 0), step=step)


#: registers whose reset constant has X bits: the run drives rst through
#: the reset cycles, so the registers take the constant as on the kernel
X_RESET = {
    Language.VERILOG: """
module top_module(input clk, input rst, input [7:0] d, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'bx;
        else q <= d;
    end
endmodule
""",
    Language.VHDL: """
library ieee;
use ieee.std_logic_1164.all;
entity top_module is
    port (clk : in std_logic; rst : in std_logic;
          d : in std_logic_vector(7 downto 0);
          q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top_module is
begin
    process (clk) begin
        if rising_edge(clk) then
            if rst = '1' then
                q <= (others => 'X');
            else
                q <= d;
            end if;
        end if;
    end process;
end architecture;
""",
}


class TestSequentialBundle:
    """Clocked DUTs judged by a generated clocked testbench: the row right
    after reset and each cycle against a Python model, on the batch path
    and identically on the kernel."""

    STIMULUS = [{"d": 1}, {"d": 2}, {"d": 3}, {"d": 250}]

    def _files(self, model, reset_outputs, pid):
        ports = (PortSpec("d", 8, "in"), PortSpec("q", 8, "out"),
                 PortSpec("dd", 8, "out"))
        return _golden_files(
            Language.VERILOG, SEQ_V, ports, model, pid,
            vectors=self.STIMULUS, reset_outputs=reset_outputs,
        )

    def _both_paths(self, files):
        batched, calls = simulate(files)
        kernel = simulate_kernel(files)
        assert calls == 1
        assert observables(batched) == observables(kernel)
        return batched

    def test_reset_row_and_cycles_match_the_model(self):
        files = self._files(_seq_ref_model(), {"q": 0, "dd": 0}, "seq-ref")
        result = self._both_paths(files)
        assert result.output_lines == (tbgen.PASS_MESSAGE,)

    def test_each_mismatch_reports_its_row(self):
        files = self._files(
            _seq_ref_model(wrong_cycle=3), {"q": 1, "dd": 0}, "seq-ref-bad"
        )
        result = self._both_paths(files)
        assert result.output_lines == (
            "Test Case 0 Failed: q should be 1 right after reset, got 0",
            "Test Case 3 Failed: q should be 7 at cycle 3, got 6",
            "2 test case(s) failed.",
        )

    @pytest.mark.parametrize("language", list(Language))
    def test_x_reset_constant_plans(self, language):
        model = SeqModel(reset=lambda: 0,
                         step=lambda q, v: (v["d"], {"q": v["d"]}))
        files = _golden_files(
            language, X_RESET[language],
            (PortSpec("d", 8, "in"), PortSpec("q", 8, "out")), model,
            f"x-reset-{language.value}", vectors=self.STIMULUS,
            reset_outputs={"q": 0},
        )
        self._both_paths(files)


def _comb_spec():
    return DesignSpec(
        name="batchcase",
        ports=(
            PortSpec("a", 8, "in"),
            PortSpec("b", 8, "in"),
            PortSpec("y", 8, "out"),
        ),
        clocked=False,
    )


def _seq_spec():
    return DesignSpec(
        name="seqcase",
        ports=(PortSpec("d", 8, "in"), PortSpec("q", 8, "out")),
        clocked=True,
    )


def _seq_model():
    def step(state, inputs):
        nxt = (state + inputs["d"]) & 0xFF
        return nxt, {"q": nxt}

    return SeqModel(reset=lambda: 0, step=step)


class TestTestbenchBundle:
    """A generated testbench carries its own stimulus bundle: the toolchain
    finds a bundle only on the :class:`~repro.designs.tbgen.Testbench`
    object it simulates, never by its text."""

    def test_generated_testbench_carries_its_bundle(self):
        spec = _comb_spec()
        model = CombModel(lambda v: {"y": v["a"] ^ v["b"]})
        text = tbgen.make_testbench(spec, model, Language.VERILOG, "bundle-a")
        bundle = text.bundle
        assert isinstance(text, tbgen.Testbench)
        assert not bundle.spec.clocked
        assert bundle.language is Language.VERILOG
        assert len(bundle.stimulus) == len(bundle.expected)
        for vector, expected in zip(bundle.stimulus, bundle.expected):
            assert expected == {"y": (vector["a"] ^ vector["b"]) & 0xFF}

    def test_string_operations_return_plain_text(self):
        text = tbgen.make_testbench(
            _comb_spec(), CombModel(lambda v: {"y": v["a"]}),
            Language.VERILOG, "bundle-plain",
        )
        for plain in (str(text), text.strip(), text[:], text + "", f"{text}"):
            assert type(plain) is str

    def test_every_golden_testbench_carries_its_bundle(self):
        from repro.evalsuite.suite import build_suite

        for problem in build_suite():
            for language, testbench in problem.golden_tb.items():
                assert testbench.bundle.spec is problem.spec, problem.pid
                assert testbench.bundle.language is language, problem.pid

    @pytest.mark.parametrize("pid", ["gates_and", "dff_en"])
    @pytest.mark.parametrize("language", list(Language))
    def test_plain_copy_runs_on_the_kernel_with_the_same_observables(
        self, language, pid
    ):
        """``str(testbench)`` is the kernel's reference answer for one set:
        it holds the same text and no stimulus bundle."""
        from repro.evalsuite.suite import build_suite

        problem = build_suite().get(pid)
        ext = language.file_extension
        dut = HdlFile(f"top_module{ext}", problem.reference[language], language)
        testbench = problem.golden_tb[language]

        def run(text):
            return simulate([dut, HdlFile(f"tb{ext}", text, language)])

        batched, batch_calls = run(testbench)
        kernel, kernel_calls = run(str(testbench))
        assert (batch_calls, kernel_calls) == (1, 0)
        assert any("All tests passed" in line for line in batched.output_lines)
        compiled = [
            (r.ok, r.log, [str(d) for d in r.diagnostics], r.tool_seconds)
            for r in (batched.compile_result, kernel.compile_result)
        ]
        assert compiled[0] == compiled[1]
        assert observables(batched) == observables(kernel)

    def test_testbench_pickles_and_copies_with_its_bundle(self):
        import copy
        import pickle

        text = tbgen.make_testbench(
            _seq_spec(), _seq_model(), Language.VHDL, "bundle-pickle",
            reset_outputs={"q": 0},
        )
        for twin in (pickle.loads(pickle.dumps(text)), copy.deepcopy(text),
                     copy.copy(text)):
            assert isinstance(twin, tbgen.Testbench)
            assert twin == text
            assert twin.bundle == text.bundle
            assert twin.declarations == text.declarations

    def test_no_bundle_outlives_its_fuzz_campaign(self, monkeypatch):
        """Nothing keeps an ad-hoc testbench's bundle once the campaign
        that made it is done."""
        import gc
        import weakref

        from repro.qa import oracle
        from repro.qa.fuzz import run_fuzz

        made = []

        def recording(*args, **kwargs):
            testbench = tbgen.make_testbench(*args, **kwargs)
            made.append(weakref.ref(testbench.bundle))
            return testbench

        monkeypatch.setattr(oracle, "make_testbench", recording)
        report = run_fuzz(seed=3, count=4)
        assert len(report.results) == 4
        assert len(made) == 8
        gc.collect()
        assert [ref for ref in made if ref() is not None] == []

    def test_clocked_vectors_replace_and_ignore_extra(self):
        """Regression: witness replay must not be diluted by extra_vectors."""
        spec = _seq_spec()
        replacement = [{"d": 9}, {"d": 1}]
        text = tbgen.make_testbench(
            spec, _seq_model(), Language.VERILOG, "bundle-seq",
            vectors=replacement,
            extra_vectors=[{"d": 77}],
        )
        assert text.bundle.spec.clocked
        assert list(text.bundle.stimulus) == replacement
        assert "77" not in text

    def test_comb_vectors_replace_and_ignore_extra(self):
        spec = _comb_spec()
        model = CombModel(lambda v: {"y": v["a"] ^ v["b"]})
        replacement = [{"a": 3, "b": 5}]
        text = tbgen.make_testbench(
            spec, model, Language.VERILOG, "bundle-b",
            vectors=replacement,
            extra_vectors=[{"a": 77, "b": 77}],
        )
        assert list(text.bundle.stimulus) == replacement
        assert "77" not in text


def _bundle_files(language, model_fn, pid):
    dut = COMB_V if language is Language.VERILOG else COMB_VHD
    return _golden_files(language, dut, _comb_spec().ports, model_fn, pid)


COMB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
    port (a : in unsigned(7 downto 0);
          b : in unsigned(7 downto 0);
          y : out unsigned(7 downto 0));
end entity;
architecture rtl of top_module is
    signal t : unsigned(7 downto 0);
begin
    t <= a xor b;
    y <= t + a;
end architecture;
"""


#: a hand-written testbench: no stimulus bundle, so it runs on the kernel
KERNEL_TB = """
module tb;
    reg [3:0] a; wire [3:0] y;
    top_module dut(.a(a), .y(y));
    initial begin
        a = 4'd3;
        #1 $display("y=%d", y);
        a = 4'd15;
        #1 $display("y=%d", y);
        $finish;
    end
endmodule
"""


class TestToolchainRouting:
    def _counters(self, tracer):
        return {
            name: tracer.metrics.counter(f"sim.{name}").value
            for name in ("batch_calls", "batch_vectors")
        }

    @contextmanager
    def _tracer(self):
        from repro.obs.sink import MemorySink
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = Tracer(MemorySink())
        set_tracer(tracer)
        try:
            yield tracer
        finally:
            set_tracer(previous)

    @pytest.mark.parametrize("language", list(Language))
    def test_eligible_bundle_routes_through_batch(self, language):
        files = _bundle_files(
            language, lambda v: {"y": (v["a"] ^ v["b"]) + v["a"]}, "route-ok"
        )
        with self._tracer() as tracer:
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert any("All tests passed" in l for l in result.output_lines)
        counters = self._counters(tracer)
        assert counters["batch_calls"] == 1
        assert counters["batch_vectors"] == len(
            files[1].text.bundle.stimulus
        )

    def test_kernel_run_feeds_scheduler_counters(self):
        """A kernel simulate() reports its activations and delta cycles."""
        files = [HdlFile("t.v", _REFUSAL_HEAD + "    assign y = a + 1;\n"
                         "endmodule\n" + KERNEL_TB, Language.VERILOG)]
        with self._tracer() as tracer:
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert result.output_lines == ("y=4", "y=0")
        for name in ("activations", "delta_cycles"):
            assert tracer.metrics.counter(f"sim.{name}").value > 0, name
        assert self._counters(tracer)["batch_calls"] == 0

    @pytest.mark.parametrize("language", list(Language))
    def test_failing_cases_report_identically(self, language):
        # a deliberately wrong model: the batch tier must synthesize the
        # exact failure lines the event kernel prints for the same bundle
        files = _bundle_files(
            language, lambda v: {"y": v["a"] & v["b"]}, "route-fail"
        )

        batched, calls = simulate(files)
        kernel = simulate_kernel(files)
        assert calls == 1
        assert any("Failed" in l for l in batched.output_lines)
        assert observables(batched) == observables(kernel)

    def test_ineligible_dut_falls_back(self):
        # an asynchronous reset is an edge off clk, which the planner
        # refuses; the toolchain must fall back to the kernel and still
        # succeed
        spec = DesignSpec(
            name="gated",
            ports=(PortSpec("en", 1, "in"), PortSpec("q", 8, "out")),
            clocked=True,
        )

        def step(state, inputs):
            nxt = (state + 1) & 0xFF if inputs["en"] else state
            return nxt, {"q": nxt}

        tb = tbgen.make_testbench(
            spec, SeqModel(reset=lambda: 0, step=step),
            Language.VERILOG, "gated-case",
        )
        files = [
            HdlFile("top_module.v", GATED_SEQ_V.replace(
                "posedge clk", "posedge clk or posedge rst"
            ), Language.VERILOG),
            HdlFile("tb.v", tb, Language.VERILOG),
        ]
        with self._tracer() as tracer:
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert any("All tests passed" in l for l in result.output_lines)
        assert self._counters(tracer)["batch_calls"] == 0


class TestModeledCost:
    """``tool_seconds`` is the compile, one launch and the simulated time,
    whichever path ran."""

    @pytest.mark.parametrize("path", ["batch", "kernel"])
    @pytest.mark.parametrize("language", list(Language))
    def test_tool_seconds_is_launch_plus_simulated_time(self, language, path):
        files = _bundle_files(
            language, lambda v: {"y": (v["a"] ^ v["b"]) + v["a"]},
            f"cost-{language.value}",
        )
        if path == "kernel":
            files = plain_text(files)
        result, calls = simulate(files)
        assert result.ok, result.log
        assert calls == (path == "batch")
        assert result.end_time > 0
        assert result.tool_seconds == (
            result.compile_result.tool_seconds
            + Toolchain.SIM_BASE_SECONDS
            + Toolchain.SIM_PER_US_SECONDS * result.end_time / 1000.0
        )


class TestCompileMemo:
    def test_repeat_compile_returns_the_stored_result(self):
        files = [HdlFile("t.v", COMB_V, Language.VERILOG)]
        toolchain = Toolchain()
        first = toolchain.compile(files, "top_module")
        second = toolchain.compile(files, "top_module")
        assert first.ok
        assert second is first
        assert toolchain.store.stats["compile"].hits == 1

    def test_distinct_sources_do_not_collide(self):
        toolchain = Toolchain()
        good = toolchain.compile(
            [HdlFile("t.v", COMB_V, Language.VERILOG)], "top_module"
        )
        bad = toolchain.compile(
            [HdlFile("t.v", "module top_module(; endmodule",
                     Language.VERILOG)],
            "top_module",
        )
        assert good.ok and not bad.ok

"""Unit tests for the levelized cone tier (``repro.sim.compile.level``).

The equivalence suite proves the tier is observationally identical; these
tests pin the *structural* contract instead: which networks become cones,
which constructs are quarantined back to ordinary processes, how the
two-state fast path demotes on live X, and how the scheduler accounts for
cone calls.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.diagnostics import DiagnosticCollector
from repro.sim.kernel import Simulator

_TIER_FLAGS = ("REPRO_SIM_NO_LEVEL", "REPRO_SIM_NO_TWOSTATE")


@contextmanager
def _pin(**flags):
    """Own every tier flag for the block so ambient settings can't leak in."""
    previous = {flag: os.environ.pop(flag, None) for flag in _TIER_FLAGS}
    os.environ.update(flags)
    try:
        yield
    finally:
        for flag, value in previous.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


def build(source: str, language=Language.VERILOG, top: str = "tb", **flags):
    ext = language.file_extension
    files = [HdlFile(f"t{ext}", source, language)]
    collector = DiagnosticCollector()
    with _pin(**flags):
        design = Toolchain()._build_design(files, top, collector)
    assert design is not None, [str(d) for d in collector.diagnostics]
    return design


def run(design):
    simulator = Simulator(design)
    stats = simulator.run()
    return simulator, stats


CHAIN_V = """
module tb;
    reg [7:0] a, b; wire [7:0] y;
    wire [7:0] t0 = a ^ b;
    wire [7:0] t1 = t0 + a;
    wire [7:0] t2 = t1 & 8'h3F;
    assign y = t2 | t0;
    initial begin
        a = 8'd3; b = 8'd5;
        #1 $display("y=%d", y);
        a = 8'd200;
        #1 $display("y=%d", y);
        $finish;
    end
endmodule
"""


class TestConeFormation:
    def test_chain_collapses_into_one_cone(self):
        design = build(CHAIN_V)
        assert len(design.cones) == 1
        cone = design.cones[0]
        # all four assigns folded into one callable; inputs are the two
        # externally-driven regs
        assert sorted(s.name for s in cone.inputs) == ["a", "b"]
        simulator, stats = run(design)
        assert simulator.output == ["y=15", "y=221"]
        assert stats.cone_calls > 0

    def test_cone_calls_not_counted_as_process_activations(self):
        design = build(CHAIN_V)
        _, stats = run(design)
        closure_design = build(CHAIN_V, REPRO_SIM_NO_LEVEL="1")
        _, closure_stats = run(closure_design)
        assert stats.process_activations < closure_stats.process_activations
        assert closure_stats.cone_calls == 0

    def test_no_level_env_flag_disables_cones(self):
        design = build(CHAIN_V, REPRO_SIM_NO_LEVEL="1")
        assert design.cones == []
        simulator, _ = run(design)
        assert simulator.output == ["y=15", "y=221"]

    def test_no_twostate_env_flag_keeps_fourstate_cones(self):
        design = build(CHAIN_V, REPRO_SIM_NO_TWOSTATE="1")
        assert len(design.cones) == 1
        simulator, stats = run(design)
        assert simulator.output == ["y=15", "y=221"]
        assert stats.cone_calls > 0

    def test_vhdl_network_forms_cone(self):
        design = build(
            """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
    signal a : unsigned(7 downto 0) := x"03";
    signal b : unsigned(7 downto 0) := x"05";
    signal t, y : unsigned(7 downto 0);
begin
    t <= a xor b;
    y <= t + a;
    stim: process begin
        wait for 1 ns;
        assert y = x"09" report "bad y" severity error;
        report "done";
        wait;
    end process;
end architecture;
""",
            Language.VHDL,
        )
        assert len(design.cones) == 1
        simulator, stats = run(design)
        assert simulator.output == ["done"]
        assert stats.cone_calls > 0


class TestQuarantine:
    def test_edge_triggered_always_stays_a_process(self):
        design = build(
            """
module tb;
    reg clk; reg [3:0] q;
    always @(posedge clk) q <= q + 1;
    initial begin
        clk = 0; q = 0;
        repeat (4) begin #1 clk = 1; #1 clk = 0; end
        $display("q=%d", q);
        $finish;
    end
endmodule
"""
        )
        assert design.cones == []
        simulator, _ = run(design)
        assert simulator.output == ["q=4"]

    def test_combinational_cycle_quarantined(self):
        # a zero-delay loop must stay on ordinary processes (and trip the
        # oscillation guard), not wedge cone construction
        design = build(
            """
module tb;
    reg c; wire a, b;
    assign a = b ^ c;
    assign b = a;
    initial begin
        c = 0;
        #1 c = 1;
        #1 $finish;
    end
endmodule
"""
        )
        assert design.cones == []

    def test_impure_assign_quarantined(self):
        design = build(
            """
module tb;
    reg [3:0] a; wire [3:0] y;
    assign y = a ^ $random;
    initial begin
        a = 4'd1;
        #1 $finish;
    end
endmodule
"""
        )
        assert design.cones == []

    def test_externally_written_signal_not_cone_driven(self):
        # y is driven both by the initial block and combinationally —
        # multi-driver nets never join a cone
        design = build(
            """
module tb;
    reg [3:0] a; reg [3:0] y;
    always @(*) y = a + 1;
    initial begin
        a = 4'd1; y = 4'd0;
        #1 $display("y=%d", y);
        $finish;
    end
endmodule
"""
        )
        assert design.cones == []


class TestTwoStateFallback:
    def test_x_input_demotes_then_recovers(self):
        design = build(
            """
module tb;
    reg [7:0] a, b; wire [7:0] t; wire [7:0] y;
    assign t = a ^ b;
    assign y = t + a;
    initial begin
        a = 8'd3; b = 8'd5;
        #1 $display("y=%b", y);
        b = 8'bxxxxxxxx;
        #1 $display("y=%b", y);
        b = 8'd5;
        #1 $display("y=%b", y);
        $finish;
    end
endmodule
"""
        )
        assert len(design.cones) == 1
        simulator, stats = run(design)
        known, x_phase, recovered = simulator.output
        assert known == "y=00001001"
        assert "x" in x_phase
        assert recovered == "y=00001001"
        assert stats.cone_calls > 0


class TestSchedulerAccounting:
    def test_toolchain_metrics_counters(self):
        """simulate() feeds the scheduler counters into the live registry."""
        from repro.obs.sink import MemorySink
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = Tracer(MemorySink())
        set_tracer(tracer)
        try:
            with _pin():
                result = Toolchain().simulate(
                    [HdlFile("t.v", CHAIN_V, Language.VERILOG)], "tb"
                )
            assert result.ok, result.log
            values = {
                name: tracer.metrics.counter(f"sim.{name}").value
                for name in ("activations", "delta_cycles", "cone_calls")
            }
        finally:
            set_tracer(previous)
        assert values["activations"] > 0
        assert values["delta_cycles"] > 0
        assert values["cone_calls"] > 0

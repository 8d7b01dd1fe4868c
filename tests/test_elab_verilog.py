"""Behavioural tests: Verilog constructs through elaboration + simulation."""

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain


def simulate(source: str, top: str = "tb"):
    toolchain = Toolchain()
    result = toolchain.simulate(
        [HdlFile("t.v", source, Language.VERILOG)], top
    )
    assert result.compile_result.ok, result.log
    assert result.ok, result.log
    return result


def outputs(source: str) -> list[str]:
    return list(simulate(source).output_lines)


class TestCombinational:
    def test_continuous_assign_tracks_inputs(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] a, b; wire [3:0] y;
                assign y = a & b;
                initial begin
                    a = 4'b1100; b = 4'b1010; #1;
                    $display("y=%b", y);
                    a = 4'b1111; #1;
                    $display("y=%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["y=1000", "y=1010"]

    def test_context_width_preserves_carry(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] a, b; wire [3:0] sum; wire cout;
                assign {cout, sum} = a + b;
                initial begin
                    a = 4'd12; b = 4'd10; #1;
                    $display("c=%b s=%d", cout, sum);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["c=1 s=6"]

    def test_ternary_and_comparison(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] a, b; wire [7:0] y;
                assign y = (a < b) ? a : b;
                initial begin
                    a = 8'd9; b = 8'd4; #1;
                    $display("%0d", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["4"]

    def test_reduction_and_concat(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] a; wire p; wire [7:0] two;
                assign p = ^a;
                assign two = {a, 4'b0001};
                initial begin
                    a = 4'b1011; #1;
                    $display("p=%b two=%b", p, two);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["p=1 two=10110001"]

    def test_dynamic_bit_select(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] d; reg [2:0] i; wire y;
                assign y = d[i];
                initial begin
                    d = 8'b01000000; i = 3'd6; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["1"]

    def test_always_star_settles_at_time_zero(self):
        lines = outputs(
            """
            module tb;
                reg [1:0] s; reg [3:0] y;
                always @(*) begin
                    case (s)
                        2'd0: y = 4'd1;
                        2'd1: y = 4'd2;
                        default: y = 4'd9;
                    endcase
                end
                initial begin
                    s = 2'd1; #1;
                    $display("%0d", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["2"]


class TestSequential:
    def test_nonblocking_swap(self):
        lines = outputs(
            """
            module tb;
                reg clk; reg [3:0] a, b;
                always @(posedge clk) begin
                    a <= b;
                    b <= a;
                end
                initial begin
                    clk = 0; a = 4'd1; b = 4'd2;
                    #5 clk = 1; #5 clk = 0;
                    $display("a=%0d b=%0d", a, b);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["a=2 b=1"]

    def test_blocking_in_initial_is_sequential(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] x;
                initial begin
                    x = 4'd1;
                    x = x + 4'd1;
                    x = x * 4'd3;
                    $display("%0d", x);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["6"]

    def test_for_loop(self):
        lines = outputs(
            """
            module tb;
                integer i; reg [7:0] total;
                initial begin
                    total = 0;
                    for (i = 1; i <= 4; i = i + 1)
                        total = total + i[7:0];
                    $display("%0d", total);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["10"]

    def test_repeat_and_while(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] n;
                initial begin
                    n = 0;
                    repeat (3) n = n + 4'd1;
                    while (n < 4'd5) n = n + 4'd1;
                    $display("%0d", n);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["5"]

    def test_event_control_waits_for_edge(self):
        lines = outputs(
            """
            module tb;
                reg clk; reg [3:0] seen;
                initial begin
                    clk = 0;
                    forever #5 clk = ~clk;
                end
                initial begin
                    seen = 4'd0;
                    @(posedge clk) seen = seen + 4'd1;
                    @(posedge clk) seen = seen + 4'd1;
                    $display("t=%0d n=%0d", $time, seen);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["t=15 n=2"]

    def test_x_before_reset_then_known(self):
        lines = outputs(
            """
            module tb;
                reg clk, rst; wire [1:0] q;
                reg [1:0] q_r;
                assign q = q_r;
                always @(posedge clk)
                    if (rst) q_r <= 2'd0;
                    else q_r <= q_r + 2'd1;
                initial begin
                    clk = 0; rst = 0;
                    $display("before=%b", q);
                    rst = 1;
                    #5 clk = 1; #5 clk = 0;
                    rst = 0;
                    #5 clk = 1; #5 clk = 0;
                    $display("after=%b", q);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["before=xx", "after=01"]


class TestHierarchy:
    def test_instantiation_and_parameters(self):
        lines = outputs(
            """
            module inc #(parameter STEP = 1)(input [3:0] a, output [3:0] y);
                assign y = a + STEP;
            endmodule
            module tb;
                reg [3:0] a; wire [3:0] y1, y3;
                inc i1(.a(a), .y(y1));
                inc #(.STEP(3)) i3(.a(a), .y(y3));
                initial begin
                    a = 4'd5; #1;
                    $display("%0d %0d", y1, y3);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["6 8"]

    def test_positional_connections(self):
        lines = outputs(
            """
            module andg(input a, input b, output y);
                assign y = a & b;
            endmodule
            module tb;
                reg a, b; wire y;
                andg g(a, b, y);
                initial begin
                    a = 1; b = 1; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["1"]

    def test_output_to_bit_select(self):
        lines = outputs(
            """
            module buf1(input a, output y);
                assign y = a;
            endmodule
            module tb;
                reg [1:0] a; wire [1:0] y;
                buf1 b0(.a(a[0]), .y(y[0]));
                buf1 b1(.a(a[1]), .y(y[1]));
                initial begin
                    a = 2'b10; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["10"]


class TestSystemTasks:
    def test_display_formats(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] v;
                initial begin
                    v = 8'd200;
                    $display("d=%d h=%h b=%b", v, v, v);
                    $display("pct=100%%");
                    $finish;
                end
            endmodule
            """
        )
        assert lines[0].replace(" ", "") == "d=200h=c8b=11001000"
        assert lines[1] == "pct=100%"

    def test_time_function(self):
        lines = outputs(
            """
            module tb;
                initial begin
                    #42;
                    $display("t=%0d", $time);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["t=42"]

    def test_finish_ends_simulation(self):
        result = simulate(
            """
            module tb;
                initial begin
                    #5 $finish;
                end
                initial begin
                    #100 $display("never");
                end
            endmodule
            """
        )
        assert result.end_time == 5
        assert "never" not in result.output_lines


class TestRuntimeRobustness:
    def test_pure_x_feedback_settles_instead_of_oscillating(self):
        # four-state semantics: ~X is X, so an undriven combinational loop
        # reaches a stable all-X fixpoint rather than oscillating
        result = simulate(
            """
            module tb;
                wire a, b;
                assign a = ~b;
                assign b = a;
                initial begin
                    #1 $display("a=%b b=%b", a, b);
                    $finish;
                end
            endmodule
            """
        )
        assert result.output_lines == ("a=x b=x",)

    def test_zero_delay_oscillation_reported_not_crash(self):
        toolchain = Toolchain()
        result = toolchain.simulate(
            [
                HdlFile(
                    "t.v",
                    """
                    module tb;
                        reg a, b;
                        initial begin a = 1'b0; b = 1'b0; end
                        always @(b) a = ~b;
                        always @(a) b = a;
                        initial #10 $finish;
                    endmodule
                    """,
                    Language.VERILOG,
                )
            ],
            "tb",
        )
        assert not result.ok
        assert "oscillation" in result.runtime_error
        assert "ERROR: [XSIM" in result.log

"""Deeper Verilog behavioural coverage: casez, selects, system functions."""

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain


def outputs(source: str) -> list[str]:
    toolchain = Toolchain()
    result = toolchain.simulate(
        [HdlFile("t.v", source, Language.VERILOG)], "tb"
    )
    assert result.ok, result.log
    return list(result.output_lines)


def compile_errors(source: str) -> str:
    toolchain = Toolchain()
    result = toolchain.compile(
        [HdlFile("t.v", source, Language.VERILOG)], "tb"
    )
    assert not result.ok
    return result.log


class TestCaseVariants:
    def test_casez_wildcards(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] d; reg [1:0] y;
                always @(*) begin
                    casez (d)
                        4'b1???: y = 2'd3;
                        4'b01??: y = 2'd2;
                        4'b001?: y = 2'd1;
                        default: y = 2'd0;
                    endcase
                end
                initial begin
                    d = 4'b1010; #1; $display("%0d", y);
                    d = 4'b0110; #1; $display("%0d", y);
                    d = 4'b0010; #1; $display("%0d", y);
                    d = 4'b0001; #1; $display("%0d", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["3", "2", "1", "0"]

    def test_case_multiple_labels(self):
        lines = outputs(
            """
            module tb;
                reg [2:0] d; reg y;
                always @(*) begin
                    case (d)
                        3'd0, 3'd2, 3'd4, 3'd6: y = 1'b1;
                        default: y = 1'b0;
                    endcase
                end
                initial begin
                    d = 3'd4; #1; $display("%b", y);
                    d = 3'd5; #1; $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["1", "0"]

    def test_case_x_subject_takes_default(self):
        lines = outputs(
            """
            module tb;
                reg [1:0] d; reg [1:0] y;
                always @(*) begin
                    case (d)
                        2'b00: y = 2'd1;
                        default: y = 2'd2;
                    endcase
                end
                initial begin
                    // d never driven: stays xx, matches only default
                    #1; $display("%0d", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["2"]


class TestSelects:
    def test_indexed_part_select_read(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] d; wire [3:0] y;
                assign y = d[2 +: 4];
                initial begin
                    d = 8'b10110100; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["1101"]

    def test_minus_colon_select(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] d; wire [3:0] y;
                assign y = d[5 -: 4];
                initial begin
                    d = 8'b10110100; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["1101"]

    def test_bit_select_write(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] d;
                initial begin
                    d = 4'b0000;
                    d[2] = 1'b1;
                    d[0] = 1'b1;
                    $display("%b", d);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["0101"]

    def test_part_select_write(self):
        lines = outputs(
            """
            module tb;
                reg [7:0] d;
                initial begin
                    d = 8'h00;
                    d[7:4] = 4'hA;
                    $display("%h", d);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["a0"]

    def test_concat_lvalue(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] hi, lo;
                initial begin
                    {hi, lo} = 8'hC5;
                    $display("%h %h", hi, lo);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["c 5"]

    def test_out_of_range_read_is_x(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] d; wire y;
                assign y = d[7];
                initial begin
                    d = 4'b1111; #1;
                    $display("%b", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["x"]


class TestSystemFunctions:
    def test_clog2(self):
        lines = outputs(
            """
            module tb;
                initial begin
                    $display("%0d %0d %0d %0d",
                             $clog2(1), $clog2(2), $clog2(7), $clog2(8));
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["0 1 3 3"]

    def test_random_is_deterministic_per_run(self):
        source = """
        module tb;
            reg [31:0] r1, r2;
            initial begin
                r1 = $random;
                r2 = $random;
                $display("%0d", r1 == r2);
                $display("%0d", r1);
                $finish;
            end
        endmodule
        """
        first = outputs(source)
        second = outputs(source)
        assert first[0] == "0"  # consecutive draws differ
        assert first == second  # but runs are reproducible

    def test_signed_unsigned_passthrough(self):
        lines = outputs(
            """
            module tb;
                reg [3:0] d;
                initial begin
                    d = 4'b1010;
                    $display("%0d", $unsigned(d));
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["10"]


class TestParameters:
    def test_localparam_and_expressions(self):
        lines = outputs(
            """
            module tb;
                localparam WIDTH = 4;
                localparam DEPTH = 1 << WIDTH;
                reg [WIDTH-1:0] d;
                initial begin
                    d = DEPTH - 1;
                    $display("%0d", d);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["15"]

    def test_parameter_used_in_range(self):
        lines = outputs(
            """
            module wideand #(parameter W = 2)(
                input [W-1:0] a, input [W-1:0] b, output [W-1:0] y
            );
                assign y = a & b;
            endmodule
            module tb;
                reg [7:0] a, b; wire [7:0] y;
                wideand #(.W(8)) u(.a(a), .b(b), .y(y));
                initial begin
                    a = 8'hF0; b = 8'hAA; #1;
                    $display("%h", y);
                    $finish;
                end
            endmodule
            """
        )
        assert lines == ["a0"]


class TestElaborationErrors:
    def test_unknown_module_is_compile_error(self):
        log = compile_errors(
            "module tb; ghost g(); initial $finish; endmodule"
        )
        assert "unknown module" in log

    def test_always_without_sensitivity_or_delay_rejected(self):
        log = compile_errors(
            "module tb; reg a; always a = ~a; endmodule"
        )
        assert "loop forever" in log

    def test_bad_range_direction_rejected(self):
        log = compile_errors(
            "module tb; reg [0:3] d; initial $finish; endmodule"
        )
        assert "descending range" in log
